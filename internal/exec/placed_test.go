package exec

// placed_test.go pins the tentpole correctness contract: per-operator
// placements — uniform, auto-chosen, and every forced mixed split — must
// return results bit-identical to the scalar reference on all thirteen SSB
// queries at every fan-out degree, and a mixed run's operator rows must
// partition the combined two-device cycle total exactly.

import (
	"context"
	"fmt"
	"testing"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/ssb"
	"castle/internal/stats"
	"castle/internal/storage"
)

func newPlacedHarness(cat *stats.Catalog) *Placed {
	castle := NewCastle(cape.New(smallCape()), cat, DefaultCastleOptions())
	cpu := NewCPUExec(baseline.New(baseline.DefaultConfig()))
	return NewPlaced(castle, cpu, cat)
}

// forcedPlacements enumerates the mixed splits the executor supports for a
// plan: both fact/agg directions, with the dimensions all on the fact's
// device and all on the opposite device.
func forcedPlacements(p *plan.Physical) []*plan.PlacedPlan {
	var out []*plan.PlacedPlan
	for _, factDev := range []plan.Device{plan.DeviceCAPE, plan.DeviceCPU} {
		aggDev := plan.DeviceCPU
		if factDev == plan.DeviceCPU {
			aggDev = plan.DeviceCAPE
		}
		for _, dimOpposite := range []bool{false, true} {
			dimDev := make(map[string]plan.Device, len(p.Joins))
			for _, e := range p.Joins {
				if dimOpposite {
					dimDev[e.Dim] = aggDev
				} else {
					dimDev[e.Dim] = factDev
				}
			}
			out = append(out, plan.Compile(p, factDev).Place(factDev, aggDev, dimDev))
		}
	}
	return out
}

func checkPlacedBooks(t *testing.T, x *Placed, label string) {
	t.Helper()
	bd := x.Breakdown()
	if bd == nil {
		t.Fatalf("%s: no breakdown published", label)
	}
	capeCy, cpuCy := x.DeviceCycles()
	credit := x.StreamStats().OverlapCycles
	if credit < 0 {
		t.Errorf("%s: negative overlap credit %d", label, credit)
	}
	if got := capeCy + cpuCy - credit; bd.TotalCycles != got {
		t.Errorf("%s: breakdown total %d, want CAPE %d + CPU %d - overlap %d = %d",
			label, bd.TotalCycles, capeCy, cpuCy, credit, got)
	}
	if sum := bd.SumCycles(); sum != bd.TotalCycles {
		t.Errorf("%s: operator rows sum to %d cycles, total is %d", label, sum, bd.TotalCycles)
	}
	if bd.Device != "CAPE+CPU" {
		t.Errorf("%s: breakdown device = %q, want CAPE+CPU", label, bd.Device)
	}
	for _, op := range bd.Operators {
		if op.Device == "" {
			t.Errorf("%s: operator %s has no device", label, op.Operator)
		}
	}
}

// TestPlacedForcedMixedMatchesReference forces every supported mixed split
// of every SSB query through the placed executor at K in {1,2,4} and
// demands bit-identical results plus exactly-partitioned books.
func TestPlacedForcedMixedMatchesReference(t *testing.T) {
	database, cat := db(t)
	for _, qq := range ssb.Queries() {
		q := bindQuery(t, database, qq.SQL)
		p := optimize(t, q, cat, smallCape().MAXVL)
		want := Reference(q, database)
		for pi, pp := range forcedPlacements(p) {
			if !pp.Mixed() {
				t.Fatalf("%s: forced placement %d is uniform", qq.Flight, pi)
			}
			for _, k := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s placement=%d fact=%s k=%d", qq.Flight, pi, pp.FactDevice(), k)
				x := newPlacedHarness(cat)
				x.SetParallelism(k)
				res, err := x.Run(pp, database)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !want.Equal(res) {
					t.Errorf("%s: diverged from reference\nwant:\n%s\ngot:\n%s",
						label, want.Format(database), res.Format(database))
					continue
				}
				checkPlacedBooks(t, x, label)
			}
		}
	}
}

// TestPlacedAutoMatchesReference runs every SSB query under the optimizer's
// chosen placement (which mixes devices for the grouping-heavy flights at
// this scale) and checks results against the reference.
func TestPlacedAutoMatchesReference(t *testing.T) {
	database, cat := db(t)
	mixed := 0
	for _, qq := range ssb.Queries() {
		q := bindQuery(t, database, qq.SQL)
		p := optimize(t, q, cat, smallCape().MAXVL)
		pp := optimizer.PlacePlan(p, cat, smallCape().MAXVL)
		want := Reference(q, database)
		if pp.Mixed() {
			mixed++
		}
		for _, k := range []int{1, 2, 4} {
			x := newPlacedHarness(cat)
			x.SetParallelism(k)
			res, err := x.Run(pp, database)
			if err != nil {
				t.Fatalf("%s k=%d: %v", qq.Flight, k, err)
			}
			if !want.Equal(res) {
				t.Errorf("%s k=%d (%s): diverged from reference", qq.Flight, k, pp.String())
			}
		}
	}
	if mixed == 0 {
		t.Error("optimizer chose no mixed placement on any SSB query at this scale")
	}
}

// TestPlacedUniformDelegates checks that uniform placements through the
// placed executor reproduce the single-device executors bit for bit and
// republish their breakdowns.
func TestPlacedUniformDelegates(t *testing.T) {
	database, cat := db(t)
	for _, qq := range ssb.Queries()[:4] {
		q := bindQuery(t, database, qq.SQL)
		p := optimize(t, q, cat, smallCape().MAXVL)
		want := Reference(q, database)
		for _, dev := range []plan.Device{plan.DeviceCAPE, plan.DeviceCPU} {
			pp := plan.Compile(p, dev)
			x := newPlacedHarness(cat)
			x.SetParallelism(2)
			res, err := x.Run(pp, database)
			if err != nil {
				t.Fatalf("%s %s: %v", qq.Flight, dev, err)
			}
			if !want.Equal(res) {
				t.Errorf("%s uniform %s diverged from reference", qq.Flight, dev)
			}
			if bd := x.Breakdown(); bd == nil || bd.SumCycles() != bd.TotalCycles {
				t.Errorf("%s uniform %s: breakdown missing or unbalanced", qq.Flight, dev)
			}
			capeCy, cpuCy := x.DeviceCycles()
			if dev == plan.DeviceCAPE && cpuCy != 0 {
				t.Errorf("%s uniform CAPE touched the CPU for %d cycles", qq.Flight, cpuCy)
			}
			if dev == plan.DeviceCPU && capeCy != 0 {
				t.Errorf("%s uniform CPU touched CAPE for %d cycles", qq.Flight, capeCy)
			}
		}
	}
}

var _ = storage.Database{} // keep import balanced with helper signatures

// TestPlacedRejectsUnrunnablePlacements: the placed executor returns errors
// — never panics — for a placement it cannot run: a mixed placement on an
// executor built for one device, a device whose executor is missing, and a
// grouped SUM(a*b) aggregated on CAPE (uniform, or as the tail of a CPU
// fact stage). Whole-query routing sends that query to the CPU.
func TestPlacedRejectsUnrunnablePlacements(t *testing.T) {
	database, cat := db(t)
	p := optimize(t, bindQuery(t, database, `
		SELECT d_year, SUM(lo_extendedprice * lo_discount) FROM lineorder, date
		WHERE lo_orderdate = d_datekey GROUP BY d_year`), cat, smallCape().MAXVL)
	capeOnly := NewPlaced(NewCastle(cape.New(smallCape()), cat, DefaultCastleOptions()), nil, cat)
	ctx := context.Background()
	cpuFact := plan.Compile(p, plan.DeviceCPU).Place(plan.DeviceCPU, plan.DeviceCAPE, nil)
	for name, run := range map[string]func() error{
		"mixed on one device": func() error {
			_, err := capeOnly.RunContext(ctx, plan.Compile(p, plan.DeviceCAPE).Place(plan.DeviceCAPE, plan.DeviceCPU, nil), database)
			return err
		},
		"missing CPU executor": func() error {
			_, err := capeOnly.RunContext(ctx, plan.Compile(p, plan.DeviceCPU), database)
			return err
		},
		"grouped SUM(a*b) on CAPE": func() error {
			_, err := newPlacedHarness(cat).RunContext(ctx, plan.Compile(p, plan.DeviceCAPE), database)
			return err
		},
		"grouped SUM(a*b) tail on CAPE": func() error {
			_, err := newPlacedHarness(cat).RunContext(ctx, cpuFact, database)
			return err
		},
	} {
		if err := run(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	res, dev, err := NewDefaultHybrid(smallCape(), cat).RunContext(ctx, p, database)
	if err != nil || dev != DeviceCPU || !Reference(p.Query, database).Equal(res) {
		t.Fatalf("hybrid routed grouped SUM(a*b) to %v (err %v), want the CPU's answer", dev, err)
	}
}
