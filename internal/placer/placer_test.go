package placer

import (
	"errors"
	"testing"

	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/sql"
	"castle/internal/ssb"
	"castle/internal/stats"
)

// TestChoose pins the chooser's mapping from requests to placements: pinned
// and routed requests are uniform (priced like optimizer.PredictUniform, or
// bare plan.Compile output when unpriced), per-operator requests are the
// placement search's, and a grouped SUM(a*b) is refused on CAPE but routed
// to the CPU.
func TestChoose(t *testing.T) {
	db := ssb.Generate(ssb.Config{SF: 0.005, Seed: 1})
	cat := stats.Collect(db)
	const maxvl = 32768
	phys := func(text string) *plan.Physical {
		stmt, err := sql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		q, err := plan.Bind(stmt, db)
		if err != nil {
			t.Fatal(err)
		}
		p, err := optimizer.Optimize(q, cat, maxvl)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	q11 := phys(ssb.Queries()[0].SQL)
	grouped := phys(`SELECT d_year, SUM(lo_extendedprice * lo_discount) FROM lineorder, date
		WHERE lo_orderdate = d_datekey GROUP BY d_year`)

	for _, dev := range []plan.Device{plan.DeviceCAPE, plan.DeviceCPU} {
		pp, err := Choose(q11, cat, maxvl, Request{Device: dev, Priced: true})
		if err != nil {
			t.Fatal(err)
		}
		want := optimizer.PredictUniform(q11, cat, maxvl, dev)
		if got, uniform := pp.Uniform(); !uniform || got != dev || pp.EstCycles() != want.EstCycles() ||
			pp.AltEstCycles != want.AltEstCycles {
			t.Errorf("pinned %s: %s", dev, pp)
		}
		bare, err := Choose(q11, cat, maxvl, Request{Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		if got, uniform := bare.Uniform(); !uniform || got != dev || bare.EstCycles() != 0 {
			t.Errorf("unpriced pinned %s: %s", dev, bare)
		}
	}

	routed, err := Choose(q11, cat, maxvl, Request{Mode: Routed, Priced: true})
	if err != nil {
		t.Fatal(err)
	}
	if dev, uniform := routed.Uniform(); !uniform || dev != plan.DeviceCAPE {
		t.Errorf("routed Q1.1: %s", routed)
	}

	perOp, err := Choose(q11, cat, maxvl, Request{Mode: PerOperator})
	if err != nil {
		t.Fatal(err)
	}
	if want := optimizer.PlacePlan(q11, cat, maxvl); perOp.String() != want.String() {
		t.Errorf("per-operator:\n%s\nwant\n%s", perOp, want)
	}

	if _, err := Choose(grouped, cat, maxvl, Request{Device: plan.DeviceCAPE}); !errors.Is(err, ErrCAPEGroupedSumMul) {
		t.Errorf("pinned CAPE grouped SUM(a*b): err = %v", err)
	}
	for _, r := range []Request{{Mode: Routed}, {Mode: PerOperator}} {
		pp, err := Choose(grouped, cat, maxvl, r)
		if err != nil {
			t.Fatal(err)
		}
		if pp.AggDevice() != plan.DeviceCPU {
			t.Errorf("mode %d placed the grouped SUM(a*b) tail on %s", r.Mode, pp.AggDevice())
		}
	}
}
