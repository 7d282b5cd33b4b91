package experiments

// bench.go produces the machine-readable benchmark artifact CI archives on
// every run (BENCH_PR3.json): the waterfall geomean, per-query cycle
// counts, a K=1..4 morsel-parallel scaling curve for both devices, and the
// serving layer's latency distribution under concurrent load.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"castle"
	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/cluster"
	"castle/internal/exec"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/server"
)

// BenchScalingMAXVL is the CAPE vector length used for the scaling curve.
// At small scale factors the default 32,768 leaves too few MAXVL-sized
// morsels to occupy four tiles (SF 0.01 has ~60K fact rows = 2 morsels), so
// the curve measures fan-out at a vector length that yields >= 4 morsels.
const BenchScalingMAXVL = 8192

// BenchReport is the schema of the benchmark JSON artifact.
type BenchReport struct {
	SF             float64          `json:"sf"`
	GeomeanSpeedup float64          `json:"geomean_speedup"` // full system vs AVX-512 baseline
	Queries        []BenchQuery     `json:"queries"`
	Scaling        []ScalingPoint   `json:"scaling"`   // K=1..4 per device
	Cluster        []ClusterPoint   `json:"cluster"`   // N=1..4 scale-out
	Streaming      []StreamingPoint `json:"streaming"` // streamed crossing, mixed placement
	// Misestimates compares per-operator estimate divergence under the
	// histogram estimator vs the fixed-constant model.
	Misestimates []MisestimateModel `json:"misestimates"`
	Server       ServerBench        `json:"server"`
	// SharedServing contrasts the same skewed multi-tenant offered load with
	// scan sharing off and on: p50/p99 under identical arrivals plus the
	// fraction of answers served by fused groups.
	SharedServing []SharedServingPoint `json:"shared_serving"`
}

// BenchQuery is one SSB query's cycle accounting.
type BenchQuery struct {
	Num            int     `json:"num"`
	Flight         string  `json:"flight"`
	BaselineCycles int64   `json:"baseline_cycles"`
	CastleCycles   int64   `json:"castle_cycles"`
	Speedup        float64 `json:"speedup"`
}

// ScalingPoint is one (device, K) cell of the parallel-scaling curve.
type ScalingPoint struct {
	Device string `json:"device"`
	K      int    `json:"k"`
	// GeomeanCycles is the geometric mean of elapsed cycles over the 13
	// queries; GeomeanWork uses the summed-over-tiles work view.
	GeomeanCycles float64 `json:"geomean_cycles"`
	GeomeanWork   float64 `json:"geomean_work_cycles"`
	// SpeedupVsK1 is geomean(K=1 cycles / this K's cycles).
	SpeedupVsK1 float64 `json:"speedup_vs_k1"`
}

// ClusterPoint is one node-count cell of the scatter-gather scale-out
// curve: the coordinator's critical-path (elapsed) and total-work cycle
// views over the 13 queries, plus the cross-node shuffle traffic the
// gather phase paid.
type ClusterPoint struct {
	Scheme        string  `json:"scheme"`
	Nodes         int     `json:"nodes"`
	GeomeanCycles float64 `json:"geomean_cycles"`
	GeomeanWork   float64 `json:"geomean_work_cycles"`
	// SpeedupVsN1 is geomean(N=1 elapsed / this N's elapsed).
	SpeedupVsN1 float64 `json:"speedup_vs_n1"`
	// ShuffleBytes totals the partial-aggregate traffic over all 13 queries.
	ShuffleBytes int64 `json:"shuffle_bytes_total"`
}

// StreamingPoint is one (query, K) cell of the streamed crossing: a forced
// mixed placement (fact stage on CAPE, aggregation tail on the CPU).
// StreamedCycles already subtracts the double-buffered overlap credit, so
// OverlapCycles is the transfer time the pipeline hid under compute (a run
// that held every batch until the fact stage ended would cost
// StreamedCycles + OverlapCycles); PeakBatchBytes shows the run's
// O(K·MAXVL) intermediate footprint.
type StreamingPoint struct {
	Num            int    `json:"num"`
	Flight         string `json:"flight"`
	K              int    `json:"k"`
	StreamedCycles int64  `json:"streamed_cycles"`
	OverlapCycles  int64  `json:"overlap_cycles"`
	Batches        int64  `json:"batches"`
	PeakBatchBytes int64  `json:"peak_batch_bytes"`
}

// ServerBench is the serving-layer load result. Beyond the end-to-end
// latency distribution it reports server-side attribution: mean
// microseconds per request spent in each lifecycle phase
// (queue/lease/exec/serialize, from Response.TimingsMicros).
type ServerBench struct {
	Clients             int     `json:"clients"`
	Requests            int     `json:"requests"`
	P50Micros           int64   `json:"p50_micros"`
	P99Micros           int64   `json:"p99_micros"`
	Throughput          float64 `json:"throughput_rps"`
	QueueMeanMicros     int64   `json:"queue_mean_micros"`
	LeaseMeanMicros     int64   `json:"lease_mean_micros"`
	ExecMeanMicros      int64   `json:"exec_mean_micros"`
	SerializeMeanMicros int64   `json:"serialize_mean_micros"`
}

// RunBench assembles the full benchmark report at one scale factor.
func RunBench(sf float64) *BenchReport {
	r := NewRunner(sf)
	results := r.RunSuite()

	rep := &BenchReport{SF: sf, GeomeanSpeedup: GeoMean(results, TierABA)}
	for _, q := range results {
		rep.Queries = append(rep.Queries, BenchQuery{
			Num:            q.Num,
			Flight:         q.Flight,
			BaselineCycles: q.BaselineCycles,
			CastleCycles:   q.Tiers[TierABA].Cycles,
			Speedup:        q.Speedup(TierABA),
		})
	}

	ks := []int{1, 2, 3, 4}
	rep.Scaling = append(rep.Scaling, r.ScalingCurve("cape", ks)...)
	rep.Scaling = append(rep.Scaling, r.ScalingCurve("cpu", ks)...)
	rep.Cluster = r.ClusterCurve("hash", []int{1, 2, 3, 4})
	rep.Streaming = r.StreamingCurve([]int{1, 2})
	rep.Misestimates = r.MisestimateSummary()
	rep.Server = RunServerBench(sf, 8, 104)
	rep.SharedServing = RunMixedTenantBench(sf, 8, 250, 4*time.Second)
	return rep
}

// StreamingCurve runs all 13 queries through the forced mixed placement
// (fact stage on CAPE at BenchScalingMAXVL, aggregation tail on the CPU)
// at each fan-out K. The placement is forced rather than optimized so every
// cell actually crosses the device boundary — the crossing is what double
// buffering accelerates.
func (r *Runner) StreamingCurve(ks []int) []StreamingPoint {
	maxvl := BenchScalingMAXVL
	cfg := TierABA.config(maxvl)
	var out []StreamingPoint
	for _, k := range ks {
		for num := 1; num <= 13; num++ {
			q := r.bind(querySQL(num))
			p, err := optimizer.Optimize(q, r.Cat, maxvl)
			if err != nil {
				panic(err)
			}
			dimDev := make(map[string]plan.Device, len(p.Joins))
			for _, e := range p.Joins {
				dimDev[e.Dim] = plan.DeviceCAPE
			}
			pp := plan.Compile(p, plan.DeviceCAPE).Place(plan.DeviceCAPE, plan.DeviceCPU, dimDev)
			castle := exec.NewCastle(cape.New(cfg), r.Cat, exec.DefaultCastleOptions())
			cpuex := exec.NewCPUExec(baseline.New(baseline.DefaultConfig()))
			x := exec.NewPlaced(castle, cpuex, r.Cat)
			x.SetParallelism(k)
			if _, err := x.Run(pp, r.DB); err != nil {
				panic(fmt.Sprintf("experiments: streaming bench Q%d k=%d: %v", num, k, err))
			}
			st := x.StreamStats()
			out = append(out, StreamingPoint{
				Num:            num,
				Flight:         queryMeta(num).Flight,
				K:              k,
				StreamedCycles: x.Breakdown().TotalCycles,
				OverlapCycles:  st.OverlapCycles,
				Batches:        st.Batches,
				PeakBatchBytes: st.PeakBatchBytes,
			})
		}
	}
	return out
}

// ClusterCurve measures scatter-gather scale-out: all 13 queries through a
// coordinator at each node count (CAPE engines at BenchScalingMAXVL on
// every node), reporting the coordinator's elapsed and work cycle views.
func (r *Runner) ClusterCurve(scheme string, ns []int) []ClusterPoint {
	sch, err := cluster.ParseScheme(scheme)
	if err != nil {
		panic(err)
	}
	cfg := TierABA.config(BenchScalingMAXVL)
	base := make([]float64, 0, 13)
	var out []ClusterPoint
	for _, n := range ns {
		coord, err := cluster.New(r.DB, cluster.Config{Nodes: n, Scheme: sch})
		if err != nil {
			panic(err)
		}
		elapsed, work := make([]float64, 13), make([]float64, 13)
		var shuffle int64
		for num := 1; num <= 13; num++ {
			q := r.bind(querySQL(num))
			_, rep, err := coord.Run(context.Background(), q,
				cluster.ExecOptions{Device: "cape", Config: cfg, Parallelism: 1})
			if err != nil {
				panic(fmt.Sprintf("experiments: cluster bench Q%d n=%d: %v", num, n, err))
			}
			elapsed[num-1] = float64(rep.Stats.ElapsedCycles)
			work[num-1] = float64(rep.Stats.WorkCycles)
			shuffle += rep.Stats.ShuffleBytes
		}
		if n == ns[0] {
			base = elapsed
		}
		cp := ClusterPoint{
			Scheme:        scheme,
			Nodes:         n,
			GeomeanCycles: geomeanF(elapsed),
			GeomeanWork:   geomeanF(work),
			ShuffleBytes:  shuffle,
		}
		ratios := make([]float64, len(elapsed))
		for i := range elapsed {
			ratios[i] = base[i] / elapsed[i]
		}
		cp.SpeedupVsN1 = geomeanF(ratios)
		out = append(out, cp)
	}
	return out
}

// ScalingCurve measures elapsed and work cycles for all 13 queries at each
// requested fan-out K. device is "cape" (at BenchScalingMAXVL, see above)
// or "cpu" (core count is the only knob).
func (r *Runner) ScalingCurve(device string, ks []int) []ScalingPoint {
	base := make([]float64, 0, len(ks))
	var out []ScalingPoint
	for _, k := range ks {
		elapsed, work := make([]float64, 13), make([]float64, 13)
		for n := 1; n <= 13; n++ {
			e, w := r.runScaled(device, n, k)
			elapsed[n-1], work[n-1] = float64(e), float64(w)
		}
		if k == ks[0] {
			base = elapsed
		}
		sp := ScalingPoint{
			Device:        device,
			K:             k,
			GeomeanCycles: geomeanF(elapsed),
			GeomeanWork:   geomeanF(work),
		}
		ratios := make([]float64, len(elapsed))
		for i := range elapsed {
			ratios[i] = base[i] / elapsed[i]
		}
		sp.SpeedupVsK1 = geomeanF(ratios)
		out = append(out, sp)
	}
	return out
}

// runScaled executes one SSB query at fan-out k and returns (elapsed, work)
// cycles.
func (r *Runner) runScaled(device string, num, k int) (int64, int64) {
	q := r.bind(querySQL(num))
	if device == "cpu" {
		cpu := baseline.New(baseline.DefaultConfig())
		x := exec.NewCPUExec(cpu)
		x.SetParallelism(k)
		x.Run(q, r.DB)
		return cpu.Cycles(), x.ParallelStats().WorkCycles
	}
	maxvl := BenchScalingMAXVL
	cfg := TierABA.config(maxvl)
	p, err := optimizer.Optimize(q, r.Cat, maxvl)
	if err != nil {
		panic(err)
	}
	eng := cape.New(cfg)
	cas := exec.NewCastle(eng, r.Cat, exec.DefaultCastleOptions())
	cas.SetParallelism(k)
	cas.Run(p, r.DB)
	return eng.Stats().TotalCycles(), cas.ParallelStats().WorkCycles
}

// RunServerBench drives the full serving path (admission queue, hybrid
// routing, elastic device leases, plan cache) with nClients concurrent
// clients issuing total requests, and reports the latency distribution.
func RunServerBench(sf float64, nClients, total int) ServerBench {
	db := castle.GenerateSSB(sf, 1)
	svc, err := server.New(db, nil, server.Config{
		QueueDepth: 1024, CAPETiles: 2, CPUSlots: 2, MaxTilesPerQuery: 2,
	})
	if err != nil {
		panic(err)
	}
	defer svc.Close()

	queries := castle.SSBQueries()
	lat := make([]int64, total)
	timings := make([]server.Timings, total)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < total; i += nClients {
				q := queries[i%len(queries)]
				t0 := time.Now()
				resp, err := svc.Do(context.Background(), server.Request{SQL: q.SQL})
				if err != nil {
					panic(fmt.Sprintf("experiments: server bench request: %v", err))
				}
				lat[i] = time.Since(t0).Microseconds()
				timings[i] = resp.TimingsMicros
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var sum server.Timings
	for _, tm := range timings {
		sum.QueueMicros += tm.QueueMicros
		sum.LeaseMicros += tm.LeaseMicros
		sum.ExecMicros += tm.ExecMicros
		sum.SerializeMicros += tm.SerializeMicros
	}
	n := int64(total)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) int64 { return lat[int(p*float64(len(lat)-1))] }
	return ServerBench{
		Clients:             nClients,
		Requests:            total,
		P50Micros:           pct(0.50),
		P99Micros:           pct(0.99),
		Throughput:          float64(total) / elapsed.Seconds(),
		QueueMeanMicros:     sum.QueueMicros / n,
		LeaseMeanMicros:     sum.LeaseMicros / n,
		ExecMeanMicros:      sum.ExecMicros / n,
		SerializeMeanMicros: sum.SerializeMicros / n,
	}
}

// SharedServingPoint is one mode of the mixed-tenant comparison: the same
// skewed arrival process with scan sharing off or on.
type SharedServingPoint struct {
	Sharing              bool    `json:"sharing"`
	CoalesceWindowMicros int64   `json:"coalesce_window_micros"`
	Clients              int     `json:"clients"`
	OfferedRPS           float64 `json:"offered_rps"`
	AchievedRPS          float64 `json:"achieved_rps"`
	OK                   int     `json:"ok"`
	Shed                 int     `json:"shed"`
	P50Micros            int64   `json:"p50_micros"`
	P99Micros            int64   `json:"p99_micros"`
	// SharedHitRate is the fraction of successful answers served by a fused
	// shared-scan group (0 when sharing is off).
	SharedHitRate float64 `json:"shared_hit_rate"`
}

// RunMixedTenantBench offers the same skewed multi-tenant workload twice —
// scan sharing disabled, then enabled with a 2ms coalescing window — at a
// fixed open-loop rate, and reports both latency distributions side by
// side. Hot dashboard fingerprints dominate arrivals (the regime the
// coalescer exists for); the full SSB tail fills the rest.
func RunMixedTenantBench(sf float64, nClients int, rate float64, dur time.Duration) []SharedServingPoint {
	db := castle.GenerateSSB(sf, 1)
	queries := castle.SSBQueries()
	weights := make([]int, len(queries))
	for i := range weights {
		weights[i] = 1
	}
	weights[3], weights[8], weights[0] = 8, 6, 4
	var pick []int
	for qi, w := range weights {
		for j := 0; j < w; j++ {
			pick = append(pick, qi)
		}
	}
	interval := time.Duration(float64(nClients) / rate * float64(time.Second))
	if interval <= 0 {
		interval = time.Microsecond
	}

	var out []SharedServingPoint
	for _, sharing := range []bool{false, true} {
		window := 2 * time.Millisecond
		svc, err := server.New(db, nil, server.Config{
			QueueDepth: 1024, CAPETiles: 2, CPUSlots: 2, MaxTilesPerQuery: 2,
			ScanSharing: sharing, CoalesceWindow: window, MaxGroupSize: 8,
		})
		if err != nil {
			panic(err)
		}

		type tally struct {
			ok, shed, shared int
			lat              []int64
		}
		tallies := make([]tally, nClients)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < nClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				tick := time.NewTicker(interval)
				defer tick.Stop()
				deadline := start.Add(dur)
				for seq := 0; time.Now().Before(deadline); seq++ {
					q := queries[pick[(c*7919+seq*104729)%len(pick)]]
					t0 := time.Now()
					resp, err := svc.Do(context.Background(), server.Request{SQL: q.SQL})
					tl := &tallies[c]
					if err != nil {
						// At fixed offered load a shed is an outcome to
						// count, not a bench failure.
						tl.shed++
					} else {
						tl.ok++
						tl.lat = append(tl.lat, time.Since(t0).Microseconds())
						if resp.GroupSize > 1 {
							tl.shared++
						}
					}
					select {
					case <-tick.C:
					default:
						<-tick.C // behind schedule: fire immediately
					}
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if err := svc.Close(); err != nil {
			panic(err)
		}

		var all tally
		for _, tl := range tallies {
			all.ok += tl.ok
			all.shed += tl.shed
			all.shared += tl.shared
			all.lat = append(all.lat, tl.lat...)
		}
		sort.Slice(all.lat, func(i, j int) bool { return all.lat[i] < all.lat[j] })
		pct := func(p float64) int64 {
			if len(all.lat) == 0 {
				return 0
			}
			return all.lat[int(p*float64(len(all.lat)-1))]
		}
		pt := SharedServingPoint{
			Sharing:     sharing,
			Clients:     nClients,
			OfferedRPS:  rate,
			AchievedRPS: float64(all.ok) / elapsed.Seconds(),
			OK:          all.ok,
			Shed:        all.shed,
			P50Micros:   pct(0.50),
			P99Micros:   pct(0.99),
		}
		if sharing {
			pt.CoalesceWindowMicros = window.Microseconds()
		}
		if all.ok > 0 {
			pt.SharedHitRate = float64(all.shared) / float64(all.ok)
		}
		out = append(out, pt)
	}
	return out
}

// WriteBenchJSON renders the report as indented JSON.
func (rep *BenchReport) WriteBenchJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadBenchJSON parses a benchmark artifact previously written by
// WriteBenchJSON (e.g. a committed baseline).
func ReadBenchJSON(r io.Reader) (*BenchReport, error) {
	var rep BenchReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench baseline: %w", err)
	}
	return &rep, nil
}

// CompareGeomean gates rep against a committed baseline: it returns an
// error when the waterfall geomean speedup regressed by more than tol
// (fractional, 0.02 = 2%). Improvements and within-tolerance noise pass.
// Both reports must be at the same scale factor — cycle counts are not
// comparable across SF.
func (rep *BenchReport) CompareGeomean(base *BenchReport, tol float64) error {
	if base.SF != rep.SF {
		return fmt.Errorf("bench baseline: SF mismatch (baseline %.3f vs run %.3f)", base.SF, rep.SF)
	}
	if base.GeomeanSpeedup <= 0 {
		return fmt.Errorf("bench baseline: geomean %.4f is not positive", base.GeomeanSpeedup)
	}
	floor := base.GeomeanSpeedup * (1 - tol)
	if rep.GeomeanSpeedup < floor {
		return fmt.Errorf("geomean speedup regressed: %.3fx vs baseline %.3fx (floor %.3fx at %.1f%% tolerance)",
			rep.GeomeanSpeedup, base.GeomeanSpeedup, floor, tol*100)
	}
	return nil
}

// geomeanF is the geometric mean of positive values.
func geomeanF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
