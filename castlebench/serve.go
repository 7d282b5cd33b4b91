package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"castle"
	"castle/internal/server"
	"castle/internal/telemetry"
)

// Serving workload settings.
const (
	serveSF = 0.005
	// serveRate is the open loop's fixed offered load. At SF 0.005 it keeps
	// a 2-core host about a fifth busy. Nearer the knee, queueing
	// amplifies the host's own speed drift: at SF 0.01 and 100 req/s runs
	// of one seed differed by 18-22% in p50 and p99, and even at a quarter
	// load a host 5% slower raised p99 by a quarter or more. 60 req/s for
	// 30 s leaves 18 samples beyond p99.
	serveRate = 60.0
	// serveLimit is the latency limit within_limit_ratio counts against.
	serveLimit = 100 * time.Millisecond
	// traceBlock is how many consecutive requests a traced run leaves
	// traced or untraced before switching.
	traceBlock = 100
	// serveDataSeed generates the serving database, the same for every
	// --seed, which drives the request schedule. At SF 0.01 and below whether hot
	// dashboard Q3.3 (a fifth of all requests) finds any rows flips with
	// the data seed, and the median request sits where cheap CPU-routed and
	// costlier CAPE-routed latencies meet, so p50 moved by 40% between data
	// seeds.
	serveDataSeed = 1
)

// tracedReq reports whether request i falls in a traced block of a traced
// run; blocks alternate so traced and untraced requests see the same load.
func tracedReq(i int) bool { return (i/traceBlock)%2 == 1 }

// serveConfig is the server under test: default tiles, slots and queue,
// hybrid whole-query routing, scan sharing with a 2 ms window.
var serveConfig = server.Config{ScanSharing: true, CoalesceWindow: 2 * time.Millisecond}

// Template weights of the hot dashboards (Q1.1, Q2.1, Q3.3); every other
// SSB template has weight 1.
var hotWeights = map[int]int{0: 4, 3: 8, 8: 6}

var regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// adhocFamilies is the number of ad-hoc statement shapes adhoc draws from.
const adhocFamilies = 4

// adhoc draws one ad-hoc variant of an SSB template shape with seeded
// literals. The literal space (thousands of statements) is far larger than
// the 256-entry plan cache.
func adhoc(rng *rand.Rand, family int) string {
	switch family {
	case 0:
		lo := rng.IntN(9)
		return fmt.Sprintf(`SELECT SUM(lo_extendedprice * lo_discount) AS revenue
			FROM lineorder, date
			WHERE lo_orderdate = d_datekey AND d_year = %d
			  AND lo_discount BETWEEN %d AND %d AND lo_quantity < %d`,
			1992+rng.IntN(7), lo, lo+rng.IntN(3), 10+rng.IntN(41))
	case 1:
		return fmt.Sprintf(`SELECT SUM(lo_revenue), d_year, p_brand1
			FROM lineorder, date, part, supplier
			WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey
			  AND lo_suppkey = s_suppkey
			  AND p_category = 'MFGR#%d%d' AND s_region = '%s'
			GROUP BY d_year, p_brand1`,
			1+rng.IntN(5), 1+rng.IntN(5), regions[rng.IntN(len(regions))])
	case 2:
		r := regions[rng.IntN(len(regions))]
		y := 1992 + rng.IntN(7)
		return fmt.Sprintf(`SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue
			FROM customer, lineorder, supplier, date
			WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
			  AND lo_orderdate = d_datekey
			  AND c_region = '%s' AND s_region = '%s'
			  AND d_year >= %d AND d_year <= %d
			GROUP BY c_nation, s_nation, d_year`, r, r, y, y+rng.IntN(1999-y))
	default:
		r := regions[rng.IntN(len(regions))]
		a := 1 + rng.IntN(5)
		return fmt.Sprintf(`SELECT d_year, c_nation, SUM(lo_revenue - lo_supplycost) AS profit
			FROM date, customer, supplier, part, lineorder
			WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
			  AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
			  AND c_region = '%s' AND s_region = '%s'
			  AND (p_mfgr = 'MFGR#%d' OR p_mfgr = 'MFGR#%d')
			GROUP BY d_year, c_nation`, r, r, a, 1+(a+rng.IntN(4))%5)
	}
}

// stmt is one distinct (SQL, placement) pair of the request mix, with its
// solo answer and cost.
type stmt struct {
	sql   string
	perOp bool
	// class groups statements of one template or ad-hoc shape and one
	// placement; query_p50_ms and query_p90_ms count each request at its
	// class's median server time.
	class string
	// Filled by verification.
	answer     string
	cycles     int64
	cpuCycles  int64
	est        int64
	facadeNS   time.Duration
	layers     layerSample
	verifyFail error
}

func (s *stmt) placement() string {
	if s.perOp {
		return castle.PlacementPerOperator.String()
	}
	return ""
}

// schedule draws the seeded request mix. Its composition is exact and the
// same for every seed: templates in proportion to their weights, one
// request in 8 an ad-hoc variant and one in 4 sent with per-operator
// placement, each list shuffled on its own. The seed picks the order, the
// pairing and the ad-hoc literals. (Independent draws per request let the
// share of CPU-routed requests wander by a few percent from seed to seed,
// and the median request sits where CPU-routed and CAPE-routed latencies
// meet, so p50 followed that share.)
func schedule(seed uint64, n int) (reqs []int, stmts []*stmt) {
	templates := castle.SSBQueries()
	var pick []int
	for i := range templates {
		w := hotWeights[i]
		if w == 0 {
			w = 1
		}
		for j := 0; j < w; j++ {
			pick = append(pick, i)
		}
	}
	index := make(map[string]int)
	add := func(text string, perOp bool, class string) int {
		key := fmt.Sprintf("%v|%s", perOp, text)
		if i, ok := index[key]; ok {
			return i
		}
		index[key] = len(stmts)
		stmts = append(stmts, &stmt{sql: text, perOp: perOp, class: fmt.Sprintf("%s/%v", class, perOp)})
		return len(stmts) - 1
	}
	// The warm-up sends every template under both placements first.
	for _, perOp := range []bool{false, true} {
		for _, t := range templates {
			add(t.SQL, perOp, t.Flight)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	tmpl := make([]int, n)
	// adhocs[i] is the ad-hoc shape of request i, or -1 for a template.
	adhocs := make([]int, n)
	perOps := make([]bool, n)
	for i := range tmpl {
		tmpl[i] = pick[i*len(pick)/n]
		adhocs[i] = -1
		if i < n/8 {
			adhocs[i] = i % adhocFamilies
		}
		perOps[i] = i < n/4
	}
	rng.Shuffle(n, func(i, j int) { tmpl[i], tmpl[j] = tmpl[j], tmpl[i] })
	rng.Shuffle(n, func(i, j int) { adhocs[i], adhocs[j] = adhocs[j], adhocs[i] })
	rng.Shuffle(n, func(i, j int) { perOps[i], perOps[j] = perOps[j], perOps[i] })
	for i := 0; i < n; i++ {
		t := templates[tmpl[i]]
		if f := adhocs[i]; f >= 0 {
			reqs = append(reqs, add(adhoc(rng, f), perOps[i], fmt.Sprintf("adhoc%d", f)))
		} else {
			reqs = append(reqs, add(t.SQL, perOps[i], t.Flight))
		}
	}
	return reqs, stmts
}

// outcome is one request's result in the open loop.
type outcome struct {
	due, sent, done time.Time
	resp            *server.Response
	err             error
	// answer hashes the response's canonical rows; the rows themselves are
	// dropped so the benchmark does not hold every answer in memory while
	// it measures the server's.
	answer uint64
}

// settle hashes o's answer and drops its rows.
func settle(o outcome) outcome {
	if o.resp != nil {
		o.answer = answerHash(canonData(o.resp.Rows))
		o.resp.Rows, o.resp.Columns = nil, nil
	}
	return o
}

func answerHash(canon string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(canon)) // hash.Hash writes never fail
	return h.Sum64()
}

// runServe drives one in-process server with an open loop at serveRate.
func runServe(rc runConfig) (*report, error) {
	ctx := context.Background()
	n := int(serveRate * rc.duration.Seconds())
	rep := &report{metrics: make(map[string]float64), env: map[string]any{
		"sf": serveSF, "data_seed": serveDataSeed, "rate_per_s": serveRate, "loop": "open", "requests": n,
		"scan_sharing": true, "coalesce_window_ms": 2,
	}}
	m := rep.metrics
	reqs, stmts := schedule(rc.seed, n)

	var db *castle.DB
	var srv *server.Server
	var setup []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		d := castle.GenerateSSB(serveSF, serveDataSeed)
		d.RefreshStats()
		for _, q := range castle.SSBQueries() {
			if _, err := d.ExplainPlacement(q.SQL, castle.Options{}); err != nil {
				return nil, fmt.Errorf("preparing Q%d: %w", q.Num, err)
			}
		}
		s, err := server.New(d, nil, serveConfig)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if srv != nil {
			if err := srv.Close(); err != nil {
				return nil, err
			}
		}
		db, srv = d, s
	}
	m["setup_s"] = quantile(setup, 0.5)
	defer srv.Close()

	var tr *tracer
	var pl *pipeline
	if rc.trace {
		tr = newTracer()
		pl = setupLayers(tr, m, serveSF, []uint64{serveDataSeed, serveDataSeed, serveDataSeed})[2]
	}

	// Untimed warm-up: each template once under each placement, in turn.
	warm := 2 * len(castle.SSBQueries())
	warmOut := make([]outcome, warm)
	for i := 0; i < warm; i++ {
		st := stmts[i]
		resp, err := srv.Do(ctx, server.Request{SQL: st.sql, Placement: st.placement()})
		warmOut[i] = settle(outcome{resp: resp, err: err})
	}

	reg := srv.Telemetry().Metrics()
	coal := reg.Histogram(telemetry.MetricCoalesceWait, "")
	coalN0, coalSum0 := coal.Count(), coal.Sum()
	pcs0 := db.PlanCacheStats()
	runtime.GC()
	rt0 := readRuntime()

	// The open loop: request i is due at start + i/rate and is sent then,
	// however many earlier requests are still in flight.
	out := make([]outcome, n)
	period := time.Second / time.Duration(serveRate)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for i, si := range reqs {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		traced := rc.trace && tracedReq(i)
		st := stmts[si]
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			resp, err := srv.Do(ctx, server.Request{SQL: st.sql, Placement: st.placement()})
			done := time.Now()
			out[i] = settle(outcome{due: due, sent: sent, done: done, resp: resp, err: err})
			if traced {
				traceRequest(tr, int64(i), out[i])
			}
		}(i, due)
	}
	wg.Wait()
	end := time.Now()
	rt1 := readRuntime()
	pcs1 := db.PlanCacheStats()
	coalN1, coalSum1 := coal.Count(), coal.Sum()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}

	// Verification: every distinct statement runs solo through the facade
	// with the request's options, and once on the CPU model; every response
	// must match its statement's solo answer.
	cpuRuns := make(map[string]*stmt)
	for k, st := range stmts {
		verify(ctx, db, pl, tr, int64(-2-k), st, cpuRuns)
	}
	check := func(st *stmt, o outcome) error {
		switch {
		case o.err != nil:
			return o.err
		case st.verifyFail != nil:
			return st.verifyFail
		case o.answer != answerHash(st.answer):
			return mismatchf("served answer differs from solo run")
		}
		return nil
	}
	for i, o := range warmOut {
		rep.attempted++
		if err := check(stmts[i], o); err != nil {
			rep.fail(err)
		}
	}

	var lat, lag, tracedLat, untracedLat []float64
	var okClass []string // the class of each answered request
	classWall := make(map[string][]float64)
	classLat := make(map[string][]float64)
	var queue, lease, execT, ser []float64
	var within, ok, shed, shared int
	var cyc, speedup, estErr []float64
	for i, o := range out {
		st := stmts[reqs[i]]
		rep.attempted++
		lag = append(lag, ms(o.sent.Sub(o.due)))
		cyc = append(cyc, float64(st.cycles))
		speedup = append(speedup, float64(st.cpuCycles)/float64(st.cycles))
		if st.est > 0 {
			estErr = append(estErr, 100*math.Abs(float64(st.est-st.cycles))/float64(st.cycles))
		}
		if errors.Is(o.err, server.ErrOverloaded) {
			shed++
		}
		if err := check(st, o); err != nil {
			rep.fail(err)
			continue
		}
		ok++
		l := o.done.Sub(o.due)
		lat = append(lat, ms(l))
		okClass = append(okClass, st.class)
		classLat[st.class] = append(classLat[st.class], ms(l))
		if l <= serveLimit {
			within++
		}
		if rc.trace && tracedReq(i) {
			tracedLat = append(tracedLat, ms(l))
		} else {
			untracedLat = append(untracedLat, ms(l))
		}
		classWall[st.class] = append(classWall[st.class], float64(o.resp.WallMicros)/1e3)
		t := o.resp.TimingsMicros
		queue = append(queue, float64(t.QueueMicros)/1e3)
		lease = append(lease, float64(t.LeaseMicros)/1e3)
		execT = append(execT, float64(t.ExecMicros)/1e3)
		ser = append(ser, float64(t.SerializeMicros)/1e3)
		if o.resp.GroupID != 0 {
			shared++
		}
	}

	if !rc.trace {
		m["queries_per_s"] = float64(ok) / end.Sub(start).Seconds()
		// The median request sits where CPU-routed and CAPE-routed times
		// meet, where raw medians moved by 20-26% between runs of the same
		// code. So the medians, and query_p90_ms, count each answered
		// request at its class's median; the p99 tail stays raw, since it
		// is made of rare collisions that only the raw samples show.
		atTypical := func(byClass map[string][]float64) []float64 {
			typical := make(map[string]float64, len(byClass))
			for c, v := range byClass {
				typical[c] = quantile(v, 0.5)
			}
			vals := make([]float64, len(okClass))
			for i, c := range okClass {
				vals[i] = typical[c]
			}
			return vals
		}
		wall := atTypical(classWall)
		m["query_p50_ms"] = quantile(wall, 0.5)
		m["query_p90_ms"] = quantile(wall, 0.9)
		m["latency_p50_ms"] = quantile(atTypical(classLat), 0.5)
		m["latency_p99_ms"] = quantile(lat, 0.99)
		m["within_limit_ratio"] = float64(within) / float64(n)
		m["sim_cycles_geomean"] = geomean(cyc)
		m["sim_speedup_geomean"] = geomean(speedup)
		m["alloc_mb_per_query"] = (rt1.allocBytes - rt0.allocBytes) / 1e6 / float64(n)
		m["peak_rss_mb"] = rss
		return rep, nil
	}

	// Per-layer figures. The front end is replayed request by request in
	// arrival order through a plan cache like the facade's; the execution
	// layers come from each request's statement's solo replay.
	var front, mix layerSample
	var facade float64
	var overhead []float64
	for k := 0; k < warm; k++ {
		if _, err := pl.replayServeFrontEnd(0, -1, stmts[k].sql, stmts[k].perOp); err != nil {
			return nil, err
		}
	}
	for i, si := range reqs {
		st := stmts[si]
		pipe := tr.begin("bench.pipeline", 0, int64(i), time.Now())
		s, err := pl.replayServeFrontEnd(pipe, int64(i), st.sql, st.perOp)
		tr.finish(pipe, time.Now())
		if err != nil {
			return nil, err
		}
		front.add(s)
		mix.add(st.layers)
		facade += ms(st.facadeNS)
		overhead = append(overhead, ms(st.facadeNS-st.layers.mirrored()))
	}
	fn := float64(n)
	layerMeans(m, mix, fn)
	exactMix(m, mix, fn)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / fn }
	m["sql.parse_us"] = us(front.parse)
	m["plan.bind_us"] = us(front.bind)
	m["plan.compile_us"] = us(front.compile + mix.compile)
	m["optimizer.optimize_us"] = us(front.optimize)
	m["optimizer.place_us"] = us(front.place)
	m["castle.query_ms"] = facade / fn
	m["castle.overhead_ms"] = quantile(overhead, 0.5)
	m["runtime.gc_cpu_share"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	hits, misses := pcs1.Hits-pcs0.Hits, pcs1.Misses-pcs0.Misses
	m["optimizer.plancache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["optimizer.plancache_evictions"] = float64(pcs1.Evictions - pcs0.Evictions)
	m["optimizer.est_error_pct_mean"] = mean(estErr)
	m["optimizer.est_error_pct_p95"] = quantile(estErr, 0.95)
	m["server.queue_ms_mean"] = mean(queue)
	m["server.lease_ms_mean"] = mean(lease)
	m["server.exec_ms_mean"] = mean(execT)
	m["server.serialize_ms_mean"] = mean(ser)
	m["server.shed_ratio"] = float64(shed) / fn
	m["server.shared_hit_ratio"] = ratio(float64(shared), float64(ok))
	m["server.coalesce_wait_ms_mean"] = ratio((coalSum1-coalSum0)/1e3, float64(coalN1-coalN0))
	m["loadgen.lag_ms_p99"] = quantile(lag, 0.99)
	m["loadgen.lag_ms_max"] = quantile(lag, 1)
	base := quantile(untracedLat, 0.5)
	m["trace.overhead_pct"] = 100 * ratio(quantile(tracedLat, 0.5)-base, base)
	selfTimeMetrics(m, tr, len(tracedLat), func(req int64) bool { return req >= 0 && tracedReq(int(req)) })
	name := fmt.Sprintf("serve-mixed-seed%d.json", rc.seed)
	if err := tr.write(filepath.Join(rc.traceDir, name)); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return rep, nil
}

// traceRequest records one served request as spans: the request from its
// due time, the Do call, and the server's four lifecycle phases laid end to
// end from the call's start.
func traceRequest(tr *tracer, req int64, o outcome) {
	root := tr.add("bench.request", 0, req, o.due, o.done)
	do := tr.add("server.do", root, req, o.sent, o.done)
	if o.resp == nil {
		return
	}
	t := o.resp.TimingsMicros
	at := o.sent
	for _, ph := range []struct {
		name string
		us   int64
	}{
		{"server.queue", t.QueueMicros}, {"server.lease", t.LeaseMicros},
		{"server.exec", t.ExecMicros}, {"server.serialize", t.SerializeMicros},
	} {
		next := at.Add(time.Duration(ph.us) * time.Microsecond)
		tr.add(ph.name, do, req, at, next)
		at = next
	}
}

// verify runs st solo through the facade with its request options (and, in
// a traced run, replays its layer calls), then checks the answer against
// the CPU model's, run once per SQL text.
func verify(ctx context.Context, db *castle.DB, pl *pipeline, tr *tracer, req int64, st *stmt, cpuRuns map[string]*stmt) {
	opt := castle.Options{Device: castle.DeviceHybrid, DisablePlanCache: true}
	if st.perOp {
		opt.Placement = castle.PlacementPerOperator
	}
	t0 := time.Now()
	rows, qm, err := db.QueryContext(ctx, st.sql, opt)
	t1 := time.Now()
	facadeSpan := tr.add("castle.query", 0, req, t0, t1)
	if err != nil {
		st.verifyFail = fmt.Errorf("solo run: %w", err)
		return
	}
	st.answer, st.cycles, st.est, st.facadeNS = canonData(rows.Data), qm.Cycles, qm.EstCycles, t1.Sub(t0)
	if pl != nil {
		s, res, err := pl.replayHybrid(ctx, facadeSpan, req, st.sql, st.perOp)
		if err != nil {
			st.verifyFail = fmt.Errorf("layer replay: %w", err)
			return
		}
		if canonResult(res) != canonRows(rows) {
			st.verifyFail = mismatchf("layer replay answer differs from solo run")
			return
		}
		st.layers = s
	}
	ref, seen := cpuRuns[st.sql]
	if !seen {
		ref = &stmt{}
		crows, cm, err := db.QueryContext(ctx, st.sql, castle.Options{Device: castle.DeviceCPU, DisablePlanCache: true})
		if err != nil {
			ref.verifyFail = fmt.Errorf("CPU run: %w", err)
		} else {
			ref.answer, ref.cpuCycles = canonData(crows.Data), cm.Cycles
		}
		cpuRuns[st.sql] = ref
	}
	switch {
	case ref.verifyFail != nil:
		st.verifyFail = ref.verifyFail
	case ref.answer != st.answer:
		st.verifyFail = mismatchf("solo answer differs from the CPU model")
	}
	st.cpuCycles = ref.cpuCycles
}
