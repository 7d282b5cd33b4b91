package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"time"

	"castle"
	"castle/internal/ssb"
	"castle/internal/stats"
)

// batchSF is the scale factor of the batch workloads: about 300k lineorder
// rows, so one CAPE fact sweep spans ~10 morsels of MAXVL 32768.
const batchSF = 0.05

// batchDatasets is how many SSB databases, each generated from its own
// seed derived from --seed, a batch run cycles through. At SF 0.05 whether
// Q3.3 and Q3.4 find any supplier in their two cities flips with the data
// seed (about half the seeds return no rows, at 1/30th of the cost), so a
// run over several databases varies far less from seed to seed than a run
// over one.
const batchDatasets = 4

// setupReps is how many times a run sets up from scratch; setup_s is the
// median.
const setupReps = 5

// batchLimit is the latency limit within_limit_ratio counts against on the
// batch workloads (an interactive query should answer within a second).
const batchLimit = time.Second

type batchWorkload struct {
	device castle.Device // forced device the workload measures
	ref    castle.Device // the other executor, which supplies the answers
}

var (
	batchCAPE = batchWorkload{device: castle.DeviceCAPE, ref: castle.DeviceCPU}
	batchCPU  = batchWorkload{device: castle.DeviceCPU, ref: castle.DeviceCAPE}
)

// batchQuery is one SSB query on one dataset, with what the setup learned
// about it.
type batchQuery struct {
	db        *castle.DB
	pl        *pipeline // the traced run's layer replay over the same data
	sql       string
	answer    string // canonical answer from the reference executor
	cycles    int64  // simulated cycles on the measured device
	refCycles int64  // simulated cycles on the reference executor
	est       int64  // the optimizer's predicted cycles for the measured run
	// lats holds the query's latencies on untraced rounds.
	lats []float64
	// layers is the first traced replay's sample (its counts are exact).
	layers  layerSample
	replied bool
}

// dataSeeds derives the run's dataset seeds from --seed.
func dataSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for k := range out {
		out[k] = seed*uint64(n) + uint64(k)
	}
	return out
}

// runBatch runs the 13 SSB queries through DB.QueryContext on one forced
// device: one closed-loop client, whole passes in a seeded shuffled order,
// each pass on the next of the run's datasets.
func runBatch(rc runConfig, w batchWorkload) (*report, error) {
	ctx := context.Background()
	opts := castle.Options{Device: w.device}
	seeds := dataSeeds(rc.seed, batchDatasets)
	rep := &report{metrics: make(map[string]float64), env: map[string]any{
		"sf": batchSF, "datasets": batchDatasets, "data_seeds": seeds,
		"device": w.device.String(), "clients": 1, "loop": "closed",
	}}
	m := rep.metrics

	// Setup: generate, collect statistics and prepare every plan for each
	// dataset, several times; the last set of databases is measured.
	var dbs []*castle.DB
	var setup []float64
	for i := 0; i < setupReps; i++ {
		dbs = nil
		runtime.GC()
		t0 := time.Now()
		for _, ds := range seeds {
			d := castle.GenerateSSB(batchSF, ds)
			d.RefreshStats()
			for _, q := range castle.SSBQueries() {
				if _, err := d.ExplainPlacement(q.SQL, opts); err != nil {
					return nil, fmt.Errorf("preparing Q%d: %w", q.Num, err)
				}
			}
			dbs = append(dbs, d)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	m["setup_s"] = quantile(setup, 0.5)

	var tr *tracer
	pls := make([]*pipeline, len(seeds))
	if rc.trace {
		tr = newTracer()
		pls = setupLayers(tr, m, batchSF, seeds)
	}

	// Answers and cycles from the other executor, then an untimed warm-up
	// pass on the measured device that fills the plan cache and records
	// each query's cycles and estimate.
	passes := make([][]*batchQuery, len(dbs))
	for k, db := range dbs {
		for _, q := range castle.SSBQueries() {
			rows, rm, err := db.QueryContext(ctx, q.SQL, castle.Options{Device: w.ref, DisablePlanCache: true})
			if err != nil {
				return nil, fmt.Errorf("reference run of Q%d: %w", q.Num, err)
			}
			passes[k] = append(passes[k], &batchQuery{
				db: db, pl: pls[k], sql: q.SQL, answer: canonRows(rows), refCycles: rm.Cycles,
			})
		}
		for _, q := range passes[k] {
			rows, qm, err := db.QueryContext(ctx, q.sql, opts)
			rep.attempted++
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			q.cycles, q.est = qm.Cycles, qm.EstCycles
			if canonRows(rows) != q.answer {
				rep.fail(mismatchf("warm-up answer differs from the %s executor", w.ref))
			}
		}
	}
	warm := rep.attempted

	check := func(q *batchQuery, rows *castle.Rows, qm *castle.Metrics, err error) error {
		switch {
		case err != nil:
			return err
		case canonRows(rows) != q.answer:
			return mismatchf("answer differs from the %s executor", w.ref)
		case qm.Cycles != q.cycles:
			return mismatchf("cycles %d, first pass %d", qm.Cycles, q.cycles)
		}
		return nil
	}
	cacheStats := func() (st castle.PlanCacheStats) {
		for _, db := range dbs {
			s := db.PlanCacheStats()
			st.Hits += s.Hits
			st.Misses += s.Misses
			st.Evictions += s.Evictions
		}
		return st
	}

	// Measurement: whole rounds (one pass per dataset) until the time is
	// up. A traced run alternates untraced and traced rounds, so both see
	// the same queries and state.
	rng := rand.New(rand.NewPCG(rc.seed, 0xba7c4))
	var lats []float64
	var tracedLats []float64
	var traced []layerSample
	var overhead []float64
	var completed int
	pcs0 := cacheStats()
	runtime.GC()
	rt0 := readRuntime()
	start := time.Now()
	for r := 0; time.Since(start) < rc.duration || (rc.trace && r < 2); r++ {
		tracedRound := rc.trace && r%2 == 1
		for k, qs := range passes {
			pass := r*len(passes) + k
			for _, qi := range rng.Perm(len(qs)) {
				q := qs[qi]
				req := int64(pass*len(qs) + qi)
				if !tracedRound {
					t0 := time.Now()
					rows, qm, err := q.db.QueryContext(ctx, q.sql, opts)
					lat := time.Since(t0)
					rep.attempted++
					if err := check(q, rows, qm, err); err != nil {
						rep.fail(err)
						continue
					}
					completed++
					lats = append(lats, ms(lat))
					q.lats = append(q.lats, ms(lat))
					continue
				}
				t0 := time.Now()
				root := tr.begin("bench.query", 0, req, t0)
				misses := q.db.PlanCacheStats().Misses
				t1 := time.Now()
				rows, qm, err := q.db.QueryContext(ctx, q.sql, opts)
				t2 := time.Now()
				facadeSpan := tr.add("castle.query", root, req, t1, t2)
				miss := q.db.PlanCacheStats().Misses > misses
				tr.finish(root, time.Now())
				s, res, rerr := q.pl.replayForced(ctx, facadeSpan, req, q.sql, w.device, miss)
				rep.attempted++
				if err := check(q, rows, qm, err); err != nil {
					rep.fail(err)
					continue
				}
				if rerr != nil {
					return nil, fmt.Errorf("layer replay: %w", rerr)
				}
				if canonResult(res) != q.answer {
					rep.fail(mismatchf("layer replay answer differs"))
					continue
				}
				if !q.replied {
					q.layers, q.replied = s, true
				}
				tracedLats = append(tracedLats, ms(t2.Sub(t1)))
				traced = append(traced, s)
				overhead = append(overhead, ms(t2.Sub(t1)-s.mirrored()))
			}
		}
	}
	rt1 := readRuntime()
	pcs1 := cacheStats()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Exact simulator figures over every dataset's 13 queries.
	var cyc, speedup, estErr []float64
	var mix layerSample
	for _, qs := range passes {
		for _, q := range qs {
			cyc = append(cyc, float64(q.cycles))
			capeCy, cpuCy := q.cycles, q.refCycles
			if w.device == castle.DeviceCPU {
				capeCy, cpuCy = q.refCycles, q.cycles
			}
			speedup = append(speedup, float64(cpuCy)/float64(capeCy))
			if q.est > 0 {
				estErr = append(estErr, 100*math.Abs(float64(q.est-q.cycles))/float64(q.cycles))
			}
			mix.add(q.layers)
		}
	}

	if !rc.trace {
		// The host's speed drifts over seconds (its memory bandwidth is
		// shared with other tenants), so each query counts at its typical
		// latency, its median over the rounds: a garbage collection or a
		// slow stretch that hits one query on one round does not set the
		// figures. The rate is the closed loop's at those latencies, which
		// also leaves out the benchmark's own answer checks.
		var typical []float64
		var loopMS float64
		for _, qs := range passes {
			for _, q := range qs {
				t := quantile(q.lats, 0.5)
				typical = append(typical, t)
				loopMS += t
			}
		}
		m["queries_per_s"] = 1e3 * float64(len(typical)) / loopMS
		m["query_p50_ms"] = quantile(typical, 0.5)
		m["query_p90_ms"] = quantile(typical, 0.9)
		m["latency_p50_ms"] = m["query_p50_ms"]
		m["latency_p99_ms"] = quantile(typical, 0.99)
		within := 0
		for _, l := range lats {
			if l <= ms(batchLimit) {
				within++
			}
		}
		m["within_limit_ratio"] = ratio(float64(within), float64(rep.attempted-warm))
		m["sim_cycles_geomean"] = geomean(cyc)
		m["sim_speedup_geomean"] = geomean(speedup)
		m["alloc_mb_per_query"] = (rt1.allocBytes - rt0.allocBytes) / 1e6 / float64(completed)
		m["peak_rss_mb"] = rss
		return rep, nil
	}

	// Per-layer figures from the traced rounds.
	var sum layerSample
	for _, s := range traced {
		sum.add(s)
	}
	layerMeans(m, sum, float64(len(traced)))
	exactMix(m, mix, float64(len(cyc)))
	m["castle.query_ms"] = mean(tracedLats)
	// The facade's own cost is a small difference of two noisy timings of
	// the same work; the median of the per-query differences resists the
	// occasional slow call on either side.
	m["castle.overhead_ms"] = quantile(overhead, 0.5)
	m["runtime.gc_cpu_share"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	hits, misses := pcs1.Hits-pcs0.Hits, pcs1.Misses-pcs0.Misses
	m["optimizer.plancache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["optimizer.plancache_evictions"] = float64(pcs1.Evictions - pcs0.Evictions)
	m["optimizer.est_error_pct_mean"] = mean(estErr)
	m["optimizer.est_error_pct_p95"] = quantile(estErr, 0.95)
	base := quantile(lats, 0.5)
	m["trace.overhead_pct"] = 100 * ratio(quantile(tracedLats, 0.5)-base, base)
	selfTimeMetrics(m, tr, len(traced), func(req int64) bool { return req >= 0 })
	name := fmt.Sprintf("ssb-%s-seed%d.json", w.device, rc.seed)
	if err := tr.write(filepath.Join(rc.traceDir, name)); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return rep, nil
}

// setupLayers times the data generator and the statistics collector on
// their own, once per data seed, and returns a replay pipeline over each
// copy. Setup spans carry request id -1.
func setupLayers(tr *tracer, m map[string]float64, sf float64, seeds []uint64) []*pipeline {
	var gen, col []float64
	var pls []*pipeline
	for _, seed := range seeds {
		t0 := time.Now()
		store := ssb.Generate(ssb.Config{SF: sf, Seed: seed})
		t1 := time.Now()
		cat := stats.Collect(store)
		t2 := time.Now()
		tr.add("ssb.generate", 0, -1, t0, t1)
		tr.add("stats.collect", 0, -1, t1, t2)
		gen = append(gen, ms(t1.Sub(t0)))
		col = append(col, ms(t2.Sub(t1)))
		pls = append(pls, newPipeline(store, cat, tr))
	}
	m["ssb.generate_ms"] = quantile(gen, 0.5)
	m["stats.collect_ms"] = quantile(col, 0.5)
	return pls
}

// layerMeans sets the per-query mean of every timed layer in sum over n
// queries, and the host-time rates of the two simulators.
func layerMeans(m map[string]float64, sum layerSample, n float64) {
	us := func(d time.Duration) float64 { return ratio(float64(d.Nanoseconds())/1e3, n) }
	m["sql.parse_us"] = us(sum.parse)
	m["plan.bind_us"] = us(sum.bind)
	m["plan.compile_us"] = us(sum.compile)
	m["optimizer.optimize_us"] = us(sum.optimize)
	m["optimizer.place_us"] = us(sum.place)
	m["optimizer.predict_us"] = us(sum.predict)
	m["cape.new_us"] = us(sum.capeNew)
	m["exec.cape_run_ms"] = us(sum.capeRun) / 1e3
	m["exec.cpu_run_ms"] = us(sum.cpuRun) / 1e3
	m["exec.alloc_mb_per_query"] = ratio(sum.execAlloc/1e6, n)
	m["cape.host_ns_per_vinstr"] = ratio(float64(sum.capeRun.Nanoseconds()), float64(sum.vinstrs))
	m["baseline.host_ns_per_kcycle"] = ratio(float64(sum.cpuRun.Nanoseconds()), float64(sum.cpuCycles)/1e3)
}

// exactMix sets the simulator counts per query over the workload's mix;
// they repeat exactly for a seed.
func exactMix(m map[string]float64, mix layerSample, n float64) {
	m["cape.vector_instrs"] = ratio(float64(mix.vinstrs), n)
	m["cape.sim_cycles"] = ratio(float64(mix.capeCycles), n)
	m["baseline.sim_cycles"] = ratio(float64(mix.cpuCycles), n)
}
