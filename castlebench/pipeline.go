package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"castle"
	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/exec"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/sql"
	"castle/internal/stats"
	"castle/internal/storage"
)

// pipeline re-issues, from benchmark code, the layer calls the castle
// facade makes for one query — parse, bind, optimize, place, engine
// construction, execution, prediction — each under its own span. It works
// on its own copy of the generated data (same seed, same contents) so the
// facade's state is untouched. The re-issued spans are recorded as children
// of the facade call's span, so the facade's self time is its time minus
// these calls: its own overhead.
type pipeline struct {
	store *storage.Database
	cat   *stats.Catalog
	cfg   cape.Config
	tr    *tracer
	// prepared holds each statement's bound query and physical plan for
	// replays of facade calls that hit the facade's plan cache.
	prepared map[string]prep
	// cache is the benchmark's own plan cache for replaying the serving
	// front end request by request (same capacity and keys as the facade).
	cache *optimizer.PlanCache
}

type prep struct {
	bound *plan.Query
	phys  *plan.Physical
}

// layerSample accumulates one query's (or request's) layer costs.
type layerSample struct {
	parse, bind, optimize, place, predict, compile time.Duration
	capeNew, cpuNew, capeRun, cpuRun, decide       time.Duration
	execAlloc                                      float64
	vinstrs, capeCycles, cpuCycles                 int64
}

func (s *layerSample) add(o layerSample) {
	s.parse += o.parse
	s.bind += o.bind
	s.optimize += o.optimize
	s.place += o.place
	s.predict += o.predict
	s.compile += o.compile
	s.capeNew += o.capeNew
	s.cpuNew += o.cpuNew
	s.capeRun += o.capeRun
	s.cpuRun += o.cpuRun
	s.decide += o.decide
	s.execAlloc += o.execAlloc
	s.vinstrs += o.vinstrs
	s.capeCycles += o.capeCycles
	s.cpuCycles += o.cpuCycles
}

// mirrored is the time of the replayed calls the facade itself makes
// (plan.compile is a probe of a call nested inside predict and place, so
// it is not part of the facade's call list).
func (s layerSample) mirrored() time.Duration {
	return s.parse + s.bind + s.optimize + s.place + s.predict +
		s.capeNew + s.cpuNew + s.capeRun + s.cpuRun + s.decide
}

func newPipeline(store *storage.Database, cat *stats.Catalog, tr *tracer) *pipeline {
	return &pipeline{
		store:    store,
		cat:      cat,
		cfg:      cape.DefaultConfig().WithEnhancements(),
		tr:       tr,
		prepared: make(map[string]prep),
		cache:    optimizer.NewPlanCache(0),
	}
}

// timed runs fn under a span and returns its duration.
func (p *pipeline) timed(name string, parent int, req int64, fn func()) time.Duration {
	d, _ := p.timedSpan(name, parent, req, fn)
	return d
}

// timedSpan is timed that also returns the span id.
func (p *pipeline) timedSpan(name string, parent int, req int64, fn func()) (time.Duration, int) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	return t1.Sub(t0), p.tr.add(name, parent, req, t0, t1)
}

// frontEnd parses, binds and (when optimize is set) optimizes a statement.
func (p *pipeline) frontEnd(s *layerSample, parent int, req int64, text string, optimize bool) (prep, error) {
	var pr prep
	var stmt *sql.SelectStmt
	var err error
	s.parse += p.timed("sql.parse", parent, req, func() { stmt, err = sql.Parse(text) })
	if err != nil {
		return pr, err
	}
	s.bind += p.timed("plan.bind", parent, req, func() { pr.bound, err = plan.Bind(stmt, p.store) })
	if err != nil || !optimize {
		return pr, err
	}
	s.optimize += p.timed("optimizer.optimize", parent, req, func() {
		pr.phys, err = optimizer.Optimize(pr.bound, p.cat, p.cfg.MAXVL)
	})
	return pr, err
}

// prepare returns the statement's plans, preparing them untimed on first
// use (for replays of plan-cache hits).
func (p *pipeline) prepare(text string) (prep, error) {
	if pr, ok := p.prepared[text]; ok {
		return pr, nil
	}
	untraced := *p
	untraced.tr = nil
	pr, err := untraced.frontEnd(&layerSample{}, 0, 0, text, true)
	if err == nil {
		p.prepared[text] = pr
	}
	return pr, err
}

// predict replays the facade's post-execution prediction, then probes the
// plan.Compile call nested inside it (recorded as the prediction's child).
func (p *pipeline) predict(s *layerSample, parent int, req int64, phys *plan.Physical, dev plan.Device) {
	d, id := p.timedSpan("optimizer.predict", parent, req, func() {
		optimizer.PredictUniform(phys, p.cat, p.cfg.MAXVL, dev)
	})
	s.predict += d
	s.compile += p.timed("plan.compile", id, req, func() { plan.Compile(phys, dev) })
}

// place replays one placement search, then probes its nested plan.Compile.
func (p *pipeline) place(s *layerSample, parent int, req int64, phys *plan.Physical) *plan.PlacedPlan {
	var pp *plan.PlacedPlan
	d, id := p.timedSpan("optimizer.place", parent, req, func() {
		pp = optimizer.PlacePlan(phys, p.cat, p.cfg.MAXVL)
	})
	s.place += d
	s.compile += p.timed("plan.compile", id, req, func() { plan.Compile(phys, plan.DeviceCAPE) })
	return pp
}

// runExec times one executor call, attributing its time and allocations
// to the CAPE or CPU run by the device that did the work.
func (p *pipeline) runExec(s *layerSample, parent int, req int64, fn func() (*exec.Result, plan.Device, error)) (*exec.Result, error) {
	a0 := allocBytes()
	t0 := time.Now()
	res, dev, err := fn()
	t1 := time.Now()
	s.execAlloc += allocBytes() - a0
	name := "exec.cape_run"
	if dev == plan.DeviceCPU {
		name = "exec.cpu_run"
		s.cpuRun += t1.Sub(t0)
	} else {
		s.capeRun += t1.Sub(t0)
	}
	p.tr.add(name, parent, req, t0, t1)
	return res, err
}

// replayForced mirrors DB.QueryContext with Device forced to CAPE or CPU.
// miss says whether the facade's call missed its plan cache (and so ran
// the front end).
func (p *pipeline) replayForced(ctx context.Context, parent int, req int64, text string, dev castle.Device, miss bool) (layerSample, *exec.Result, error) {
	var s layerSample
	pr, err := p.prepare(text)
	if err != nil {
		return s, nil, err
	}
	if miss {
		fe, err := p.frontEnd(&s, parent, req, text, dev != castle.DeviceCPU)
		if err != nil {
			return s, nil, err
		}
		pr.bound = fe.bound
		if fe.phys != nil {
			pr.phys = fe.phys
		}
	}
	var res *exec.Result
	if dev == castle.DeviceCPU {
		var cpu *baseline.CPU
		s.cpuNew = p.timed("baseline.new", parent, req, func() { cpu = baseline.New(baseline.DefaultConfig()) })
		res, err = p.runExec(&s, parent, req, func() (*exec.Result, plan.Device, error) {
			r, err := exec.NewCPUExec(cpu).RunContext(ctx, pr.bound, p.store)
			return r, plan.DeviceCPU, err
		})
		if err != nil {
			return s, nil, err
		}
		s.cpuCycles = cpu.Cycles()
		// The facade's CPU path re-optimizes on every query to price its
		// prediction.
		var phys *plan.Physical
		s.optimize += p.timed("optimizer.optimize", parent, req, func() {
			phys, err = optimizer.Optimize(pr.bound, p.cat, p.cfg.MAXVL)
		})
		if err != nil {
			return s, nil, err
		}
		p.predict(&s, parent, req, phys, plan.DeviceCPU)
		return s, res, nil
	}
	var eng *cape.Engine
	s.capeNew = p.timed("cape.new", parent, req, func() { eng = cape.New(p.cfg) })
	res, err = p.runExec(&s, parent, req, func() (*exec.Result, plan.Device, error) {
		r, err := exec.NewCastle(eng, p.cat, exec.DefaultCastleOptions()).RunContext(ctx, pr.phys, p.store)
		return r, plan.DeviceCAPE, err
	})
	if err != nil {
		return s, nil, err
	}
	st := eng.Stats()
	s.vinstrs, s.capeCycles = st.VectorInstrs, st.TotalCycles()
	p.predict(&s, parent, req, pr.phys, plan.DeviceCAPE)
	return s, res, nil
}

// replayHybrid mirrors DB.QueryContext with DeviceHybrid and the plan cache
// disabled: whole-query routing, or a per-operator placed pipeline.
func (p *pipeline) replayHybrid(ctx context.Context, parent int, req int64, text string, perOp bool) (layerSample, *exec.Result, error) {
	var s layerSample
	pr, err := p.frontEnd(&s, parent, req, text, true)
	if err != nil {
		return s, nil, err
	}
	var eng *cape.Engine
	var cpu *baseline.CPU
	s.capeNew = p.timed("cape.new", parent, req, func() { eng = cape.New(p.cfg) })
	s.cpuNew = p.timed("baseline.new", parent, req, func() { cpu = baseline.New(baseline.DefaultConfig()) })
	h := exec.NewHybrid(exec.NewCastle(eng, p.cat, exec.DefaultCastleOptions()), exec.NewCPUExec(cpu), p.cat)
	var res *exec.Result
	if perOp {
		pp := p.place(&s, parent, req, pr.phys)
		res, err = p.runExec(&s, parent, req, func() (*exec.Result, plan.Device, error) {
			r, _, err := h.RunPlacedContext(ctx, pp, p.store)
			return r, pp.FactDevice(), err
		})
	} else {
		var dev exec.Device
		res, err = p.runExec(&s, parent, req, func() (*exec.Result, plan.Device, error) {
			var r *exec.Result
			var err error
			r, dev, err = h.RunContext(ctx, pr.phys, p.store)
			if dev == exec.DeviceCPU {
				return r, plan.DeviceCPU, err
			}
			return r, plan.DeviceCAPE, err
		})
		if err == nil {
			pdev := plan.DeviceCAPE
			if dev == exec.DeviceCPU {
				pdev = plan.DeviceCPU
			}
			p.predict(&s, parent, req, pr.phys, pdev)
		}
	}
	if err != nil {
		return s, nil, err
	}
	st := eng.Stats()
	s.vinstrs, s.capeCycles, s.cpuCycles = st.VectorInstrs, st.TotalCycles(), cpu.Cycles()
	return s, res, nil
}

// replayServeFrontEnd mirrors the server's front end for one request:
// routing (or ExplainPlacement) and the facade's own preparation, both
// through a plan cache of the facade's capacity and keys, so parse, bind
// and optimize run only where the server's calls would have missed.
func (p *pipeline) replayServeFrontEnd(parent int, req int64, text string, perOp bool) (layerSample, error) {
	var s layerSample
	maxvl := p.cfg.MAXVL
	capeKey := optimizer.Fingerprint(text, "cape", maxvl, plan.ZigZag, false)
	get := func(key string, optimize bool) (optimizer.CachedPlan, error) {
		if cp, ok := p.cache.Get(key, 1); ok {
			return cp, nil
		}
		pr, err := p.frontEnd(&s, parent, req, text, optimize)
		if err != nil {
			return optimizer.CachedPlan{}, err
		}
		cp := optimizer.CachedPlan{Bound: pr.bound, Phys: pr.phys}
		p.cache.Put(key, 1, cp)
		return cp, nil
	}
	cp, err := get(capeKey, true)
	if err != nil {
		return s, err
	}
	if perOp {
		// ExplainPlacement, then the placed execution's own placement.
		p.place(&s, parent, req, cp.Phys)
		if _, err := get(capeKey, true); err != nil {
			return s, err
		}
		p.place(&s, parent, req, cp.Phys)
		return s, nil
	}
	var dev exec.Device
	s.decide = p.timed("exec.decide", parent, req, func() { dev = exec.DecideDevice(cp.Phys, p.cat, 0, 0) })
	if dev == exec.DeviceCPU {
		_, err = get(optimizer.Fingerprint(text, "cpu", 0, plan.ZigZag, false), false)
	} else {
		_, err = get(capeKey, true)
	}
	return s, err
}

// canonData renders decoded result rows in a sorted canonical form, so
// answers from different executors compare regardless of row order.
func canonData(data [][]string) string {
	rows := make([]string, len(data))
	for i, r := range data {
		rows[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(rows)
	return strings.Join(rows, "\x1e")
}

// canonRaw renders encoded rows (group keys, aggregates) canonically.
func canonRaw(n int, row func(i int) ([]uint32, []int64)) string {
	rows := make([]string, n)
	var b strings.Builder
	for i := range rows {
		b.Reset()
		keys, aggs := row(i)
		for _, k := range keys {
			b.WriteString(strconv.FormatUint(uint64(k), 10))
			b.WriteByte(',')
		}
		b.WriteByte('|')
		for _, a := range aggs {
			b.WriteString(strconv.FormatInt(a, 10))
			b.WriteByte(',')
		}
		rows[i] = b.String()
	}
	sort.Strings(rows)
	return strings.Join(rows, ";")
}

func canonRows(r *castle.Rows) string {
	return canonRaw(len(r.Raw), func(i int) ([]uint32, []int64) { return r.Raw[i].Keys, r.Raw[i].Aggs })
}

func canonResult(r *exec.Result) string {
	return canonRaw(len(r.Rows), func(i int) ([]uint32, []int64) { return r.Rows[i].Keys, r.Rows[i].Aggs })
}

// errMismatch marks a wrong answer or a non-deterministic cycle count.
type errMismatch struct{ what string }

func (e errMismatch) Error() string { return "mismatch: " + e.what }

func mismatchf(format string, args ...any) error {
	return errMismatch{what: fmt.Sprintf(format, args...)}
}
