package exec

// parallel_test.go covers the morsel-driven parallel fact sweep: golden
// determinism across devices and fan-out degrees, the two cycle views
// (elapsed vs work), breakdown exactness, executor reentrancy under -race,
// and the K=4 scaling acceptance bar.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/sql"
	"castle/internal/ssb"
	"castle/internal/stats"
	"castle/internal/telemetry"
)

// workOverheadBound is the documented fission/merge overhead: summed tile
// work cycles may exceed the serial run's cycles by per-tile dispatch
// (cape.ForkScalarsPerTile), the partial-accumulator merge, and per-range
// operator setup (one extra vector charge per predicate per extra range on
// the CPU; per-tile CP accesses on smaller working sets on CAPE). Across
// the SSB suite at SF 0.01 the measured overhead is under 2%; the bound
// leaves headroom without ever hiding a duplicated sweep (which would show
// up as ~K x serial).
const workOverheadBound = 0.10

// runCapeParallel executes one bound query on a fresh CAPE engine at the
// given fan-out, returning the formatted result, elapsed cycles, and the
// run's ParallelStats.
func runCapeParallel(t *testing.T, qsql string, k, maxvl int) (string, int64, ParallelStats) {
	t.Helper()
	database, cat := db(t)
	bound := bindQuery(t, database, qsql)
	cfg := withFlags(cape.DefaultConfig(), true, true, true)
	cfg.MAXVL = maxvl
	p := optimize(t, bound, cat, cfg.MAXVL)
	eng := cape.New(cfg)
	c := NewCastle(eng, cat, DefaultCastleOptions())
	c.SetParallelism(k)
	res, err := c.RunContext(context.Background(), p, database)
	if err != nil {
		t.Fatal(err)
	}
	return res.Format(database), eng.Stats().TotalCycles(), c.ParallelStats()
}

// runCPUParallel is runCapeParallel's baseline counterpart.
func runCPUParallel(t *testing.T, qsql string, k int) (string, int64, ParallelStats) {
	t.Helper()
	database, _ := db(t)
	bound := bindQuery(t, database, qsql)
	cpu := baseline.New(baseline.DefaultConfig())
	x := NewCPUExec(cpu)
	x.SetParallelism(k)
	res, err := x.RunContext(context.Background(), bound, database)
	if err != nil {
		t.Fatal(err)
	}
	return res.Format(database), cpu.Cycles(), x.ParallelStats()
}

// TestParallelGoldenAcrossDevices is the determinism gate: every SSB query
// must produce byte-identical results at K=2 and K=4 on both devices, and
// the summed tile work cycles must match the serial run within the
// documented fission/merge overhead bound.
func TestParallelGoldenAcrossDevices(t *testing.T) {
	const maxvl = 4096 // ~15 morsels at SF 0.01: a real 4-way fan-out
	for _, q := range ssb.Queries() {
		serialOut, serialCycles, _ := runCapeParallel(t, q.SQL, 1, maxvl)
		cpuSerialOut, cpuSerialCycles, _ := runCPUParallel(t, q.SQL, 1)
		for _, k := range []int{2, 4} {
			out, elapsed, ps := runCapeParallel(t, q.SQL, k, maxvl)
			if out != serialOut {
				t.Fatalf("%s CAPE K=%d: rows differ from serial\nserial:\n%s\nK=%d:\n%s",
					q.Flight, k, serialOut, k, out)
			}
			checkWorkBound(t, q.Flight+" CAPE", k, serialCycles, elapsed, ps)

			out, elapsed, ps = runCPUParallel(t, q.SQL, k)
			if out != cpuSerialOut {
				t.Fatalf("%s CPU K=%d: rows differ from serial\nserial:\n%s\nK=%d:\n%s",
					q.Flight, k, cpuSerialOut, k, out)
			}
			checkWorkBound(t, q.Flight+" CPU", k, cpuSerialCycles, elapsed, ps)
		}
	}
}

func checkWorkBound(t *testing.T, label string, k int, serial, elapsed int64, ps ParallelStats) {
	t.Helper()
	if ps.Tiles < 2 {
		t.Fatalf("%s K=%d: sweep did not parallelise (tiles=%d)", label, k, ps.Tiles)
	}
	if ps.ElapsedCycles != elapsed {
		t.Fatalf("%s K=%d: ParallelStats elapsed %d != engine %d", label, k, ps.ElapsedCycles, elapsed)
	}
	if elapsed >= serial {
		t.Errorf("%s K=%d: parallel elapsed %d not below serial %d", label, k, elapsed, serial)
	}
	if ps.WorkCycles < elapsed {
		t.Fatalf("%s K=%d: work %d below elapsed %d", label, k, ps.WorkCycles, elapsed)
	}
	if over := float64(ps.WorkCycles-serial) / float64(serial); over > workOverheadBound {
		t.Errorf("%s K=%d: work cycles %d exceed serial %d by %.1f%% (bound %.0f%%)",
			label, k, ps.WorkCycles, serial, 100*over, 100*workOverheadBound)
	}
}

// TestParallelBreakdownPartitionsTotal: the EXPLAIN ANALYZE rows of a
// parallel run — per-tile sweeps, the negative overlap credit, and the
// merge — must still sum exactly to the engine's TotalCycles.
func TestParallelBreakdownPartitionsTotal(t *testing.T) {
	database, cat := db(t)
	q := ssb.Queries()[3] // Q2.1: three joins, grouped aggregate
	bound := bindQuery(t, database, q.SQL)

	cfg := withFlags(cape.DefaultConfig(), true, true, true)
	cfg.MAXVL = 4096
	p := optimize(t, bound, cat, cfg.MAXVL)
	eng := cape.New(cfg)
	c := NewCastle(eng, cat, DefaultCastleOptions())
	c.SetParallelism(4)
	c.Run(p, database)
	checkParallelBreakdown(t, c.Breakdown(), eng.Stats().TotalCycles())

	cpu := baseline.New(baseline.DefaultConfig())
	x := NewCPUExec(cpu)
	x.SetParallelism(4)
	x.Run(bound, database)
	checkParallelBreakdown(t, x.Breakdown(), cpu.Cycles())
}

func checkParallelBreakdown(t *testing.T, b *telemetry.Breakdown, total int64) {
	t.Helper()
	if b == nil {
		t.Fatal("no breakdown recorded")
	}
	if b.TotalCycles != total {
		t.Fatalf("%s breakdown total %d != engine %d", b.Device, b.TotalCycles, total)
	}
	if got := b.SumCycles(); got != b.TotalCycles {
		t.Fatalf("%s breakdown rows sum to %d, want %d exactly:\n%s",
			b.Device, got, b.TotalCycles, b.Format())
	}
	for _, want := range []string{"sweep[0]", "sweep[3]", "parallel-overlap", "merge"} {
		found := false
		for _, o := range b.Operators {
			if o.Operator == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s breakdown missing %q row:\n%s", b.Device, want, b.Format())
		}
	}
	for _, o := range b.Operators {
		if strings.HasPrefix(o.Operator, "sweep[") && o.Cycles <= 0 {
			t.Errorf("%s breakdown: %s has non-positive cycles %d", b.Device, o.Operator, o.Cycles)
		}
		if o.Operator == "overhead" && o.Cycles < 0 {
			t.Errorf("%s breakdown: negative overhead %d", b.Device, o.Cycles)
		}
	}
}

// TestParallelismOneMatchesDefault: requesting K=1 must take the exact
// serial code path — identical rows and identical cycle counts to an
// executor that never heard of parallelism.
func TestParallelismOneMatchesDefault(t *testing.T) {
	database, cat := db(t)
	q := ssb.Queries()[10] // Q4.1: four joins
	bound := bindQuery(t, database, q.SQL)

	cfg := smallCape()
	p := optimize(t, bound, cat, cfg.MAXVL)
	engA := cape.New(cfg)
	defaultRes := NewCastle(engA, cat, DefaultCastleOptions()).Run(p, database)
	engB := cape.New(cfg)
	cB := NewCastle(engB, cat, DefaultCastleOptions())
	cB.SetParallelism(1)
	k1Res := cB.Run(p, database)
	if a, b := engA.Stats().TotalCycles(), engB.Stats().TotalCycles(); a != b {
		t.Fatalf("CAPE K=1 cycles %d != default-path cycles %d", b, a)
	}
	if !defaultRes.Equal(k1Res) {
		t.Fatal("CAPE K=1 rows differ from default path")
	}

	cpuA := baseline.New(baseline.DefaultConfig())
	NewCPUExec(cpuA).Run(bound, database)
	cpuB := baseline.New(baseline.DefaultConfig())
	xB := NewCPUExec(cpuB)
	xB.SetParallelism(1)
	xB.Run(bound, database)
	if a, b := cpuA.Cycles(), cpuB.Cycles(); a != b {
		t.Fatalf("CPU K=1 cycles %d != default-path cycles %d", b, a)
	}
}

// TestParallelScalingSpeedup is the acceptance bar: geomean elapsed cycles
// over the 13 SSB queries must improve at least 2x from K=1 to K=4 on both
// devices. CAPE runs at MAXVL 8192 so SF 0.01 yields enough morsels to
// occupy four tiles (the default 32,768 leaves only two).
func TestParallelScalingSpeedup(t *testing.T) {
	geomean := func(run func(qsql string) int64) float64 {
		sum := 0.0
		for _, q := range ssb.Queries() {
			sum += math.Log(float64(run(q.SQL)))
		}
		return math.Exp(sum / 13)
	}

	for _, dev := range []string{"CAPE", "CPU"} {
		run := func(k int) float64 {
			return geomean(func(qsql string) int64 {
				if dev == "CAPE" {
					_, cycles, _ := runCapeParallel(t, qsql, k, 8192)
					return cycles
				}
				_, cycles, _ := runCPUParallel(t, qsql, k)
				return cycles
			})
		}
		k1, k4 := run(1), run(4)
		if speedup := k1 / k4; speedup < 2.0 {
			t.Errorf("%s: K=4 geomean speedup %.2fx (k1=%.0f k4=%.0f), want >= 2x",
				dev, speedup, k1, k4)
		} else {
			t.Logf("%s: K=4 geomean speedup %.2fx", dev, speedup)
		}
	}
}

// TestExecutorsReentrant runs concurrent RunContext calls on separate
// engine instances — the refactor's guarantee is that executors carry no
// cross-run mutable state, so one engine per in-flight query is the only
// sharing rule. Run with -race.
func TestExecutorsReentrant(t *testing.T) {
	database, cat := db(t)
	q1 := bindQuery(t, database, ssb.Queries()[0].SQL)
	q2 := bindQuery(t, database, ssb.Queries()[7].SQL)
	wantQ1 := Reference(q1, database)
	wantQ2 := Reference(q2, database)

	cfg := smallCape()
	p1 := optimize(t, q1, cat, cfg.MAXVL)
	p2 := optimize(t, q2, cat, cfg.MAXVL)

	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, 4*rounds)
	for r := 0; r < rounds; r++ {
		k := 1 + r%3
		for _, job := range []struct {
			p    *plan.Physical
			q    *plan.Query
			want *Result
		}{{p1, q1, wantQ1}, {p2, q2, wantQ2}} {
			wg.Add(2)
			go func(p *plan.Physical, want *Result) {
				defer wg.Done()
				c := NewCastle(cape.New(cfg), cat, DefaultCastleOptions())
				c.SetParallelism(k)
				res, err := c.RunContext(context.Background(), p, database)
				if err != nil {
					errs <- err
					return
				}
				if !want.Equal(res) {
					errs <- fmt.Errorf("concurrent CAPE run (K=%d) diverged", k)
				}
				// Accessors must serve this run's books, not another's.
				if b := c.Breakdown(); b.SumCycles() != b.TotalCycles {
					errs <- fmt.Errorf("concurrent CAPE breakdown unbalanced (K=%d)", k)
				}
			}(job.p, job.want)
			go func(q *plan.Query, want *Result) {
				defer wg.Done()
				x := NewCPUExec(baseline.New(baseline.DefaultConfig()))
				x.SetParallelism(k)
				res, err := x.RunContext(context.Background(), q, database)
				if err != nil {
					errs <- err
					return
				}
				if !want.Equal(res) {
					errs <- fmt.Errorf("concurrent CPU run (K=%d) diverged", k)
				}
				if b := x.Breakdown(); b.SumCycles() != b.TotalCycles {
					errs <- fmt.Errorf("concurrent CPU breakdown unbalanced (K=%d)", k)
				}
			}(job.q, job.want)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzParallelEnginesAgree is the native fuzz target: random star schemas
// and queries (reusing the generator from fuzz_test.go) must produce
// identical relations from the reference engine, the parallel CPU
// executor, and the parallel Castle executor at an arbitrary fan-out, and
// Castle's bulk kernels must bill exactly what its literal loops bill.
//
// Run continuously with: go test -fuzz=FuzzParallelEnginesAgree ./internal/exec
func FuzzParallelEnginesAgree(f *testing.F) {
	f.Add(int64(1), uint8(2))
	f.Add(int64(0xCA57), uint8(4))
	f.Add(int64(42), uint8(1))
	f.Add(int64(-7), uint8(255))
	// A grouped SUM(a-b) whose partitions hold three or more groups: the
	// bulk group loop must round its per-group scalar subtract per group.
	f.Add(int64(126), uint8(217))
	f.Fuzz(func(t *testing.T, seed int64, kRaw uint8) {
		k := int(kRaw%8) + 1
		rng := rand.New(rand.NewSource(seed))
		s := genSchema(rng)
		qsql := genQuery(rng, s)

		stmt, err := sql.Parse(qsql)
		if err != nil {
			t.Fatalf("generator emitted unparseable SQL %q: %v", qsql, err)
		}
		bound, err := plan.Bind(stmt, s.db)
		if err != nil {
			t.Fatalf("generator emitted unbindable SQL %q: %v", qsql, err)
		}
		want := Reference(bound, s.db)

		x := NewCPUExec(baseline.New(baseline.DefaultConfig()))
		x.SetParallelism(k)
		if got := x.Run(bound, s.db); !want.Equal(got) {
			t.Fatalf("parallel CPU (K=%d) differs on %q\nref:\n%s\ncpu:\n%s",
				k, qsql, want.Format(s.db), got.Format(s.db))
		}

		cat := stats.Collect(s.db)
		cfg := randCapeConfig(rng)
		p, err := optimizer.Optimize(bound, cat, cfg.MAXVL)
		if err != nil {
			t.Fatalf("optimize %q: %v", qsql, err)
		}
		opts := DefaultCastleOptions()
		opts.Parallelism = k
		checkKernelsAgree(t, cfg, cat, opts, p, s.db, want, qsql)
	})
}
