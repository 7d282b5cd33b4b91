package optimizer

import (
	"math"
	"testing"

	"castle/internal/plan"
	"castle/internal/sql"
	"castle/internal/ssb"
	"castle/internal/stats"
	"castle/internal/storage"
)

func ssbEnv(t *testing.T) (*storage.Database, *stats.Catalog) {
	t.Helper()
	db := ssb.Generate(ssb.Config{SF: 0.01, Seed: 20260704})
	return db, stats.Collect(db)
}

func bindSQL(t *testing.T, db *storage.Database, text string) *plan.Query {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	q, err := plan.Bind(stmt, db)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	return q
}

// TestEdgeSearchesSumMatchesCost pins the per-edge decomposition against the
// whole-query Figure-5 cost: for every SSB query and every enumerated
// candidate plan, the per-edge search terms must sum to Cost exactly.
func TestEdgeSearchesSumMatchesCost(t *testing.T) {
	db, cat := ssbEnv(t)
	est := Estimator{Cat: cat}
	for _, qq := range ssb.Queries() {
		q := bindSQL(t, db, qq.SQL)
		for _, cand := range Enumerate(q, cat, 32768) {
			terms := EdgeSearches(q, est, 32768, cand.Joins, cand.SwitchAt)
			if len(terms) != len(cand.Joins) {
				t.Fatalf("%s: %d edges, %d terms", qq.Flight, len(cand.Joins), len(terms))
			}
			var sum float64
			for _, s := range terms {
				sum += s
			}
			if got, want := int64(math.Round(sum)), cand.Searches; got != want {
				t.Errorf("%s joins=%v switch=%d: edge terms sum to %d, Cost says %d",
					qq.Flight, cand.Joins, cand.SwitchAt, got, want)
			}
		}
	}
}

// TestUniformCAPEJoinCostsMatchWholeQueryCost: on an all-CAPE placement the
// join-probe operators' cycle annotations must reproduce the whole-query
// optimizer cost (searches x per-search cycles), up to one rounding unit
// per edge — the single-device sanity check for the decomposed model.
func TestUniformCAPEJoinCostsMatchWholeQueryCost(t *testing.T) {
	db, cat := ssbEnv(t)
	m := DefaultCostModel()
	for _, qq := range ssb.Queries() {
		q := bindSQL(t, db, qq.SQL)
		p, err := Optimize(q, cat, 32768)
		if err != nil {
			t.Fatal(err)
		}
		c := newPlaceCtx(p, cat, 32768, m)
		pp := plan.Compile(p, plan.DeviceCAPE)
		c.annotate(pp, plan.DeviceCAPE, plan.DeviceCAPE, nil)
		if dev, uniform := pp.Uniform(); !uniform || dev != plan.DeviceCAPE {
			t.Fatalf("%s: placement not uniform CAPE", qq.Flight)
		}
		var joinCycles int64
		for _, op := range pp.Ops {
			if op.XferCycles != 0 {
				t.Errorf("%s: uniform placement charges transfer on %s", qq.Flight, op.Kind)
			}
			if op.Kind == plan.OpJoinProbe {
				joinCycles += op.EstCycles
			}
		}
		whole := int64(math.Round(m.SearchCycles * float64(Cost(q, Estimator{Cat: cat}, 32768, p.Joins, p.Switch))))
		if diff := joinCycles - whole; diff > int64(len(p.Joins)) || diff < -int64(len(p.Joins)) {
			t.Errorf("%s: join operators cost %d cycles, whole-query model says %d",
				qq.Flight, joinCycles, whole)
		}
	}
}

// TestPingPongPlacementLoses: the transfer charge must make degenerate
// placements — every dimension built opposite the fact stage, aggregation
// bounced to the other device — cost strictly more than the chosen one.
func TestPingPongPlacementLoses(t *testing.T) {
	db, cat := ssbEnv(t)
	m := DefaultCostModel()
	for _, qq := range ssb.Queries() {
		q := bindSQL(t, db, qq.SQL)
		p, err := Optimize(q, cat, 32768)
		if err != nil {
			t.Fatal(err)
		}
		best := PlacePlanWith(p, cat, 32768, m)
		c := newPlaceCtx(p, cat, 32768, m)
		for _, factDev := range []plan.Device{plan.DeviceCAPE, plan.DeviceCPU} {
			dimDev := make(map[string]plan.Device, len(p.Joins))
			for _, e := range p.Joins {
				dimDev[e.Dim] = otherDevice(factDev)
			}
			pp := plan.Compile(p, factDev)
			cost := c.annotate(pp, factDev, otherDevice(factDev), dimDev)
			if cost <= best.EstCycles() {
				t.Errorf("%s: ping-pong placement (fact=%s) costs %d, beats chosen %d",
					qq.Flight, factDev, cost, best.EstCycles())
			}
			if pp.Crossings() != len(p.Joins)+1 {
				t.Fatalf("%s: ping-pong placement should cross %d times, got %d",
					qq.Flight, len(p.Joins)+1, pp.Crossings())
			}
		}
	}
}

// TestPlacementRespectsFusedStages: every chosen placement must satisfy the
// executor's structural constraints (fused fact stage, single-device tail).
func TestPlacementRespectsFusedStages(t *testing.T) {
	db, cat := ssbEnv(t)
	for _, qq := range ssb.Queries() {
		q := bindSQL(t, db, qq.SQL)
		p, err := Optimize(q, cat, 32768)
		if err != nil {
			t.Fatal(err)
		}
		pp := PlacePlan(p, cat, 32768)
		if err := pp.Validate(); err != nil {
			t.Errorf("%s: %v", qq.Flight, err)
		}
	}
}

// TestSSBChoosesMixedPlacement pins the tentpole behaviour: under the
// default cost model at least one SSB query must split across devices —
// the paper's hybrid case (selective fact pipeline on CAPE feeding a
// high-cardinality aggregation on the CPU), and the no-group flights must
// stay all-CAPE.
func TestSSBChoosesMixedPlacement(t *testing.T) {
	db, cat := ssbEnv(t)
	mixed := 0
	for _, qq := range ssb.Queries() {
		q := bindSQL(t, db, qq.SQL)
		p, err := Optimize(q, cat, 32768)
		if err != nil {
			t.Fatal(err)
		}
		pp := PlacePlan(p, cat, 32768)
		if pp.Mixed() {
			mixed++
			if pp.FactDevice() != plan.DeviceCAPE {
				t.Errorf("%s: mixed placement put the fact stage on %s; the paper's hybrid keeps selective fact work on CAPE",
					qq.Flight, pp.FactDevice())
			}
		}
		if qq.Num <= 3 { // Q1.x: grand aggregate, no grouping pressure
			if dev, uniform := pp.Uniform(); !uniform || dev != plan.DeviceCAPE {
				t.Errorf("%s: expected all-CAPE, got %s", qq.Flight, pp.String())
			}
		}
	}
	if mixed == 0 {
		t.Error("no SSB query chose a mixed placement under the default cost model")
	}
}

// TestGroupedSumMulForcedToCPU: SUM(a*b) under GROUP BY is the shape the
// CAPE aggregation kernel rejects; placement must force its tail to the
// CPU regardless of how cheap CAPE aggregation would price.
func TestGroupedSumMulForcedToCPU(t *testing.T) {
	db, cat := ssbEnv(t)
	q := bindSQL(t, db, `
		SELECT d_year, SUM(lo_extendedprice * lo_discount) AS revenue
		FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND d_year = 1993
		GROUP BY d_year`)
	p, err := Optimize(q, cat, 32768)
	if err != nil {
		t.Fatal(err)
	}
	// Even with a free CAPE group loop the tail must stay off CAPE.
	m := DefaultCostModel()
	m.CAPEGroupLoopCycles = 0.001
	m.CAPEReduceCycles = 0.001
	pp := PlacePlanWith(p, cat, 32768, m)
	if pp.AggDevice() != plan.DeviceCPU {
		t.Fatalf("grouped SUM(a*b) placed its tail on %s; the CAPE kernel rejects that shape", pp.AggDevice())
	}
}

// TestStreamingXferOverlapFormula pins the double-buffered crossing price:
// with B fact batches and ample producer compute, only the fixed penalty
// plus the drain edge (1/B of the payload) stays on the critical path; with
// a single batch the full wire cost is charged.
func TestStreamingXferOverlapFormula(t *testing.T) {
	c := &placeCtx{m: DefaultCostModel().withDefaults(), factParts: 4}
	const bytes = 64000.0
	raw := bytes / c.m.XferBytesPerCycle
	wire := c.m.XferFixedCycles + raw

	str := c.xferAggCost(bytes, 1e12)
	if want := c.m.XferFixedCycles + raw/4; math.Abs(str-want) > 1e-6 {
		t.Errorf("streaming xfer = %.1f, want fixed + raw/B = %.1f", str, want)
	}

	// Compute-bound producer: only factCompute·(B-1)/B hides.
	bound := c.xferAggCost(bytes, raw/2)
	if want := c.m.XferFixedCycles + raw - (raw/2)*3/4; math.Abs(bound-want) > 1e-6 {
		t.Errorf("compute-bound xfer = %.1f, want %.1f", bound, want)
	}

	// One batch: fill + drain only, nothing hides.
	c.factParts = 1
	if got := c.xferAggCost(bytes, 1e12); got != wire {
		t.Errorf("single-batch streaming xfer = %.1f, want full wire cost %.1f", got, wire)
	}
}

// TestPlacePlanStreamingNeverCostsMore checks dominance: the streamed
// crossing is never priced above the full wire cost of its payload, on
// every query and at every fan-in of fact batches.
func TestPlacePlanStreamingNeverCostsMore(t *testing.T) {
	db, cat := ssbEnv(t)
	for _, maxvl := range []int{8192, 32768} {
		for _, qq := range ssb.Queries() {
			q := bindSQL(t, db, qq.SQL)
			p, err := Optimize(q, cat, maxvl)
			if err != nil {
				t.Fatalf("%s: %v", qq.Flight, err)
			}
			c := newPlaceCtx(p, cat, maxvl, DefaultCostModel())
			wire := c.xferCost(4 * c.matched * float64(c.tailCols))
			pp := plan.Compile(p, plan.DeviceCAPE)
			c.annotate(pp, plan.DeviceCAPE, plan.DeviceCPU, nil)
			for _, op := range pp.Ops {
				if op.Kind == plan.OpAggregate && float64(op.XferCycles) > math.Round(wire) {
					t.Errorf("%s maxvl=%d: streamed crossing %d exceeds the wire cost %.0f",
						qq.Flight, maxvl, op.XferCycles, wire)
				}
			}
		}
	}
}
