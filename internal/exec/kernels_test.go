package exec

// kernels_test.go gates the bulk CAPE kernels — Algorithm 1's one-pass
// group-aware probe and Algorithm 2's one-pass group loop — against the
// literal instruction loops they replace: equal rows and reflect.DeepEqual
// engine Stats, per-opcode counts, per-class CSB cycles and memory cycles
// included.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/ssb"
	"castle/internal/stats"
	"castle/internal/storage"
)

// kernelDesignPoints are the four design points the bulk kernels must bill
// exactly: GP-only, CAM layout without vmks, ABA widths in GP mode, and
// the fully enhanced core.
func kernelDesignPoints() map[string]cape.Config {
	return map[string]cape.Config{
		"base":     smallCape(),
		"adl":      withFlags(smallCape(), true, false, false),
		"aba-gp":   withFlags(smallCape(), false, false, true),
		"enhanced": withFlags(smallCape(), true, true, true),
	}
}

// castleRun is one CAPE run's observable outcome.
type castleRun struct {
	res   *Result
	stats cape.Stats
	par   ParallelStats
}

func runCastleKernels(t *testing.T, cfg cape.Config, p *plan.Physical, opts CastleOptions) castleRun {
	t.Helper()
	database, cat := db(t)
	eng := cape.New(cfg)
	c := NewCastle(eng, cat, opts)
	res, err := c.RunContext(context.Background(), p, database)
	if err != nil {
		t.Fatal(err)
	}
	return castleRun{res: res, stats: eng.Stats(), par: c.ParallelStats()}
}

// TestBulkKernelsMatchLiteralLoops is the exact-billing gate: every SSB
// query at every design point, fused and unfused, serial and on four
// tiles, and then through the CAPE aggregation tail of a mixed placement.
func TestBulkKernelsMatchLiteralLoops(t *testing.T) {
	t.Run("sweep", testBulkKernelsSweep)
	t.Run("placed-tail", testBulkKernelsPlacedTail)
}

func testBulkKernelsSweep(t *testing.T) {
	database, cat := db(t)
	for _, qq := range ssb.Queries() {
		bound := bindQuery(t, database, qq.SQL)
		for name, cfg := range kernelDesignPoints() {
			p := optimize(t, bound, cat, cfg.MAXVL)
			for _, fusion := range []bool{true, false} {
				for _, k := range []int{1, 4} {
					label := fmt.Sprintf("%s %s fusion=%v k=%d", qq.Flight, name, fusion, k)
					opts := CastleOptions{Fusion: fusion, Parallelism: k}
					bulk := runCastleKernels(t, cfg, p, opts)
					opts.NoBulkAggFastPath = true
					lit := runCastleKernels(t, cfg, p, opts)
					if !bulk.res.Equal(lit.res) {
						t.Fatalf("%s: bulk kernels changed rows\nbulk:\n%s\nliteral:\n%s",
							label, bulk.res.Format(database), lit.res.Format(database))
					}
					if !reflect.DeepEqual(bulk.stats, lit.stats) {
						t.Fatalf("%s: bulk kernels billed\n%v\n%v\nliteral loops\n%v\n%v",
							label, bulk.stats, bulk.stats.InstrsByOp, lit.stats, lit.stats.InstrsByOp)
					}
					if !reflect.DeepEqual(bulk.par, lit.par) {
						t.Fatalf("%s: tile books differ: bulk %+v, literal %+v", label, bulk.par, lit.par)
					}
				}
			}
		}
	}
}

// testBulkKernelsPlacedTail forces the mixed placement whose aggregation
// tail runs on CAPE (fact stage on the CPU), so the tail's Algorithm 2 runs
// the same kernel pair over shipped survivor chunks.
func testBulkKernelsPlacedTail(t *testing.T) {
	database, cat := db(t)
	for _, qq := range ssb.Queries() {
		bound := bindQuery(t, database, qq.SQL)
		for name, cfg := range kernelDesignPoints() {
			p := optimize(t, bound, cat, cfg.MAXVL)
			dimDev := make(map[string]plan.Device, len(p.Joins))
			for _, e := range p.Joins {
				dimDev[e.Dim] = plan.DeviceCAPE
			}
			pp := plan.Compile(p, plan.DeviceCPU).Place(plan.DeviceCPU, plan.DeviceCAPE, dimDev)
			run := func(noBulk bool) (*Result, cape.Stats, int64) {
				opts := DefaultCastleOptions()
				opts.NoBulkAggFastPath = noBulk
				x := NewPlaced(NewCastle(cape.New(cfg), cat, opts),
					NewCPUExec(baseline.New(baseline.DefaultConfig())), cat)
				res, err := x.Run(pp, database)
				if err != nil {
					t.Fatalf("%s %s: %v", qq.Flight, name, err)
				}
				eng, cpu := x.Engines()
				return res, eng.Stats(), cpu.Cycles()
			}
			bulkRes, bulkStats, bulkCPU := run(false)
			litRes, litStats, litCPU := run(true)
			if !bulkRes.Equal(litRes) {
				t.Fatalf("%s %s: bulk tail changed rows", qq.Flight, name)
			}
			if !reflect.DeepEqual(bulkStats, litStats) || bulkCPU != litCPU {
				t.Fatalf("%s %s: bulk tail billed\n%v (cpu %d)\nliteral tail\n%v (cpu %d)",
					qq.Flight, name, bulkStats, bulkCPU, litStats, litCPU)
			}
		}
	}
}

// TestKeyGroupsSlots checks both keyGroups layouts against a map: a key
// listed in two groups takes the later group's slot, and keys outside the
// span or between keys get slot 0.
func TestKeyGroupsSlots(t *testing.T) {
	for name, far := range map[string]uint32{"dense": 11, "sorted": 1 << 31} {
		groups := []attrGroup{
			{attrVals: []uint32{70}, keys: []uint32{5, 9, far}},
			{attrVals: []uint32{90}, keys: []uint32{9, 7}},
		}
		var kg keyGroups
		kg.build(groups)
		if (kg.dense != nil) != (name == "dense") {
			t.Fatalf("%s: built the wrong layout (dense=%v)", name, kg.dense != nil)
		}
		want := map[uint32]uint32{5: 1, 9: 2, far: 1, 7: 2}
		keys := []uint32{0, 4, 5, 6, 7, 8, 9, 10, far - 1, far, far + 1, ^uint32(0)}
		for i, got := range kg.slots(keys, nil) {
			if got != want[keys[i]] {
				t.Errorf("%s: slot of %d = %d, want %d", name, keys[i], got, want[keys[i]])
			}
		}
		if got := kg.cols[0][kg.slots([]uint32{9}, nil)[0]]; got != 90 {
			t.Errorf("%s: key 9's attribute = %d, want the later group's 90", name, got)
		}
		if kg.cols[0][0] != 0 {
			t.Errorf("%s: slot 0's value = %d, want 0", name, kg.cols[0][0])
		}
	}
}

// TestBulkProbeWideSpanAndMultiAttr drives the probe shapes SSB leaves
// out through both kernel pairs: a dimension whose key span is too wide
// for the dense table, a key repeated with two attribute tuples, and two
// attributes materialized from one dimension.
func TestBulkProbeWideSpanAndMultiAttr(t *testing.T) {
	for name, span := range map[string]uint32{"dense": 40, "sorted": 3_000_000} {
		database := storage.NewDatabase()
		d := storage.NewTable("dim")
		d.AddIntColumn("d_key", []uint32{1, 2, 2, span, 17})
		d.AddIntColumn("d_cat", []uint32{7, 7, 9, 8, 9})
		d.AddIntColumn("d_year", []uint32{1993, 1994, 1994, 1995, 1993})
		database.Add(d)
		f := storage.NewTable("facts")
		fk := make([]uint32, 3000)
		v := make([]uint32, len(fk))
		for i := range fk {
			fk[i] = []uint32{1, 2, span, 17, 5, span + 1}[i%6]
			v[i] = uint32(i % 97)
		}
		f.AddIntColumn("f_fk", fk)
		f.AddIntColumn("f_v", v)
		database.Add(f)
		cat := stats.Collect(database)

		bound := bindQuery(t, database, `
			SELECT d_cat, d_year, SUM(f_v), MAX(f_v) FROM facts, dim
			WHERE f_fk = d_key GROUP BY d_cat, d_year`)
		for point, cfg := range kernelDesignPoints() {
			cfg.MAXVL = 1024
			// Right-deep: the dimension's keys probe the fact FK register.
			p, err := optimizer.BestWithShape(bound, cat, cfg.MAXVL, plan.RightDeep)
			if err != nil {
				t.Fatal(err)
			}
			if p.Switch != 1 {
				t.Fatalf("%s: plan probes left-deep (switch %d)", name, p.Switch)
			}
			run := func(noBulk bool) (*Result, cape.Stats) {
				eng := cape.New(cfg)
				res := NewCastle(eng, cat, CastleOptions{Fusion: true, NoBulkAggFastPath: noBulk}).Run(p, database)
				return res, eng.Stats()
			}
			bulk, bulkStats := run(false)
			lit, litStats := run(true)
			if !bulk.Equal(lit) {
				t.Fatalf("%s %s: bulk kernels changed rows\nbulk:\n%s\nliteral:\n%s",
					name, point, bulk.Format(database), lit.Format(database))
			}
			if !reflect.DeepEqual(bulkStats, litStats) {
				t.Fatalf("%s %s: bulk kernels billed\n%v\nliteral loops\n%v", name, point, bulkStats, litStats)
			}
			if len(bulk.Rows) == 0 {
				t.Fatalf("%s %s: empty result", name, point)
			}
		}
	}
}
