package castle_test

// placement_api_test.go covers the public surface of per-operator hybrid
// placement: Options.Placement, the combined two-device metrics, and the
// ExplainPlacement EXPLAIN surface.

import (
	"strings"
	"testing"

	castle "castle"
	"castle/internal/cape"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/sql"
	"castle/internal/ssb"
	"castle/internal/stats"
)

// TestPublicAPIPerOperatorPlacement runs a grouping-heavy SSB flight under
// per-operator placement and checks the result matches the forced
// single-device engines, the placement mixes devices, and the breakdown
// partitions the combined cycle total.
func TestPublicAPIPerOperatorPlacement(t *testing.T) {
	db := castle.GenerateSSB(0.01, 7)
	q := castle.SSBQueries()[7] // Q3.2: selective filter, city-level groups
	want, _, err := db.QueryWith(q.SQL, castle.Options{Device: castle.DeviceCAPE})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 4} {
		rows, m, err := db.QueryWith(q.SQL, castle.Options{
			Device:      castle.DeviceHybrid,
			Placement:   castle.PlacementPerOperator,
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Data) != len(want.Data) {
			t.Fatalf("par=%d: %d rows, single-device run returned %d", par, len(rows.Data), len(want.Data))
		}
		for i := range rows.Data {
			for j := range rows.Data[i] {
				if rows.Data[i][j] != want.Data[i][j] {
					t.Fatalf("par=%d row %d col %d: %q vs %q", par, i, j, rows.Data[i][j], want.Data[i][j])
				}
			}
		}
		if m.DeviceUsed != "CAPE+CPU" {
			t.Fatalf("par=%d: DeviceUsed = %q, want CAPE+CPU (mixed placement expected on %s)", par, m.DeviceUsed, q.Flight)
		}
		if !strings.Contains(m.Plan, "placed plan (mixed") {
			t.Fatalf("par=%d: Plan does not describe a mixed placed pipeline:\n%s", par, m.Plan)
		}
		if m.Breakdown == nil || m.Breakdown.SumCycles() != m.Cycles {
			t.Fatalf("par=%d: breakdown rows must partition Cycles exactly", par)
		}
		sawXfer := false
		for _, op := range m.Breakdown.Operators {
			if strings.HasPrefix(op.Operator, "xfer:") {
				sawXfer = true
			}
			if op.Device == "" {
				t.Fatalf("par=%d: operator %q carries no device", par, op.Operator)
			}
		}
		if !sawXfer {
			t.Fatalf("par=%d: mixed run published no xfer: rows", par)
		}
	}
}

// TestPublicAPIExplainPlacement checks the EXPLAIN surface: the placed tree
// renders with per-operator devices, and the grand-aggregate flights stay
// uniform CAPE while the grouping-heavy flights mix.
func TestPublicAPIExplainPlacement(t *testing.T) {
	db := castle.GenerateSSB(0.01, 7)
	pe, err := db.ExplainPlacement(castle.SSBQueries()[0].SQL, castle.Options{}) // Q1.1
	if err != nil {
		t.Fatal(err)
	}
	if pe.Mixed || pe.FactDevice != castle.DeviceCAPE {
		t.Fatalf("Q1.1 should place uniform CAPE, got mixed=%v fact=%s", pe.Mixed, pe.FactDevice)
	}
	if !strings.Contains(pe.Tree, "uniform") || !strings.Contains(pe.Tree, "scan[lineorder]") {
		t.Fatalf("Q1.1 tree malformed:\n%s", pe.Tree)
	}
	pe, err = db.ExplainPlacement(castle.SSBQueries()[7].SQL, castle.Options{}) // Q3.2
	if err != nil {
		t.Fatal(err)
	}
	if !pe.Mixed || pe.FactDevice != castle.DeviceCAPE {
		t.Fatalf("Q3.2 should mix with the fact stage on CAPE, got mixed=%v fact=%s", pe.Mixed, pe.FactDevice)
	}
	if pe.EstCycles <= 0 {
		t.Fatal("EstCycles missing")
	}
	if !strings.Contains(pe.Tree, "aggregate") || !strings.Contains(pe.Tree, "CPU") {
		t.Fatalf("Q3.2 tree should show a CPU aggregate:\n%s", pe.Tree)
	}
}

// TestPublicAPIPlacementValidation pins option parsing and validation.
func TestPublicAPIPlacementValidation(t *testing.T) {
	if p, err := castle.ParsePlacement("per-operator"); err != nil || p != castle.PlacementPerOperator {
		t.Fatalf("ParsePlacement(per-operator) = %v, %v", p, err)
	}
	if p, err := castle.ParsePlacement(""); err != nil || p != castle.PlacementWholeQuery {
		t.Fatalf("ParsePlacement(\"\") = %v, %v", p, err)
	}
	if _, err := castle.ParsePlacement("sideways"); err == nil {
		t.Fatal("ParsePlacement should reject unknown modes")
	}
	db := demoDB(t)
	if _, _, err := db.QueryWith("SELECT SUM(o_amount) FROM orders", castle.Options{Placement: castle.Placement(99)}); err == nil {
		t.Fatal("QueryWith should reject out-of-range Placement")
	}
	// Placement is ignored on forced-device runs: this must not error.
	if _, _, err := db.QueryWith("SELECT SUM(o_amount) FROM orders", castle.Options{
		Device: castle.DeviceCPU, Placement: castle.PlacementPerOperator,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestExplainPlacementMatchesRun holds ExplainPlacement to the run it
// explains and to the optimizer's own placement search, for all 13 SSB
// queries: the fact stage must execute on the device the explanation names
// (the device the server leases), the run's estimate must be the
// explanation's, and the explained tree must be exactly what
// optimizer.PlacePlan prints — one cost model prices the streamed crossing
// everywhere. SF 0.01 has two fact partitions under the default MAXVL, so
// the streamed crossing's overlap term is live on every mixed placement.
func TestExplainPlacementMatchesRun(t *testing.T) {
	const sf, seed = 0.01, 7
	db := castle.GenerateSSB(sf, seed)
	store := ssb.Generate(ssb.Config{SF: sf, Seed: seed})
	cat := stats.Collect(store)
	maxvl := cape.DefaultConfig().MAXVL
	opt := castle.Options{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator}
	mixed := 0
	for _, q := range castle.SSBQueries() {
		pe, err := db.ExplainPlacement(q.SQL, opt)
		if err != nil {
			t.Fatalf("%s: explain: %v", q.Flight, err)
		}
		_, m, err := db.QueryWith(q.SQL, opt)
		if err != nil {
			t.Fatalf("%s: run: %v", q.Flight, err)
		}
		if got := factDevice(t, m); got != pe.FactDevice.String() {
			t.Errorf("%s: fact stage ran on %s, ExplainPlacement named %s", q.Flight, got, pe.FactDevice)
		}
		if m.EstCycles != pe.EstCycles {
			t.Errorf("%s: run estimated %d cycles, ExplainPlacement %d", q.Flight, m.EstCycles, pe.EstCycles)
		}

		stmt, err := sql.Parse(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := plan.Bind(stmt, store)
		if err != nil {
			t.Fatal(err)
		}
		phys, err := optimizer.Optimize(bound, cat, maxvl)
		if err != nil {
			t.Fatal(err)
		}
		if want := optimizer.PlacePlan(phys, cat, maxvl).String(); pe.Tree != want {
			t.Errorf("%s: ExplainPlacement and optimizer.PlacePlan disagree\nexplain:\n%s\nPlacePlan:\n%s",
				q.Flight, pe.Tree, want)
		}
		if pe.Mixed {
			mixed++
		}
	}
	if mixed == 0 {
		t.Error("no SSB query placed mixed; the streamed crossing's price went untested")
	}
}

// factDevice reads the device the fact stage ran on from the breakdown:
// the filter row of a serial sweep or the first lane of a fanned-out one.
func factDevice(t *testing.T, m *castle.Metrics) string {
	t.Helper()
	for _, op := range m.Breakdown.Operators {
		if op.Operator == "filter" || op.Operator == "sweep[0]" {
			dev := op.Device
			if dev == "" {
				dev = m.Breakdown.Device
			}
			return strings.ToLower(dev)
		}
	}
	t.Fatalf("breakdown has no fact-stage row:\n%s", m.Breakdown.Format())
	return ""
}
