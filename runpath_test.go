package castle_test

// runpath_test.go covers the single run path: every single-query execution
// — forced CAPE, forced CPU, whole-query hybrid routing and per-operator
// placement — resolves one placement and runs it through the placed
// executor, so device-independent options and statistics mean the same on
// every path.

import (
	"errors"
	"reflect"
	"testing"

	castle "castle"
	"castle/internal/placer"
)

// groupedSumMul is the one aggregate shape CAPE's aggregation kernel
// rejects: SUM(a*b) under GROUP BY.
const groupedSumMul = `SELECT SUM(lo_extendedprice * lo_discount), d_year FROM lineorder, date
	WHERE lo_orderdate = d_datekey GROUP BY d_year`

// TestGroupedSumMulEveryDevice: a grouped SUM(a*b) must never crash the
// process. Forced CAPE returns an error; whole-query hybrid routes it to the
// CPU (only 7 groups, so the crossover heuristics alone would pick CAPE);
// the CPU and per-operator placement answer it as before.
func TestGroupedSumMulEveryDevice(t *testing.T) {
	db := castle.GenerateSSB(0.005, 1)
	want, _, err := db.QueryWith(groupedSumMul, castle.Options{Device: castle.DeviceCPU})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		opt     castle.Options
		wantErr bool
		device  string
	}{
		{"cape", castle.Options{Device: castle.DeviceCAPE}, true, ""},
		{"cape K=2", castle.Options{Device: castle.DeviceCAPE, Parallelism: 2}, true, ""},
		{"cpu", castle.Options{Device: castle.DeviceCPU}, false, "CPU"},
		{"hybrid", castle.Options{Device: castle.DeviceHybrid}, false, "CPU"},
		{"hybrid K=2", castle.Options{Device: castle.DeviceHybrid, Parallelism: 2}, false, "CPU"},
		{"per-operator", castle.Options{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator}, false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, m, err := db.QueryWith(groupedSumMul, tc.opt)
			if tc.wantErr {
				if !errors.Is(err, placer.ErrCAPEGroupedSumMul) {
					t.Fatalf("err = %v, want a grouped SUM(a*b) rejection", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rows.Raw, want.Raw) {
				t.Fatalf("rows differ from the CPU's:\n%v\nwant\n%v", rows.Raw, want.Raw)
			}
			if tc.device != "" && m.DeviceUsed != tc.device {
				t.Fatalf("DeviceUsed = %q, want %q", m.DeviceUsed, tc.device)
			}
		})
	}
	// The router the server leases with agrees with the run.
	if dev, err := db.Route(groupedSumMul, castle.Options{Device: castle.DeviceHybrid}); err != nil || dev != castle.DeviceCPU {
		t.Fatalf("Route = %v, %v; want cpu", dev, err)
	}
}

// TestDisableFusionEveryPath: DisableFusion reaches every uniform CAPE run.
// Q1.1 at SF 0.01 runs on CAPE under every mode, so the unfused forced-CAPE
// total (27,850 cycles; fused: 26,354) must be what whole-query hybrid and
// per-operator placement report too.
func TestDisableFusionEveryPath(t *testing.T) {
	db := castle.GenerateSSB(0.01, 1)
	q := castle.SSBQueries()[0].SQL
	const unfused, fused = 27850, 26354
	for _, opt := range []castle.Options{
		{Device: castle.DeviceCAPE},
		{Device: castle.DeviceHybrid},
		{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator},
	} {
		_, m, err := db.QueryWith(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.DisableFusion = true
		_, mu, err := db.QueryWith(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if m.DeviceUsed != "CAPE" || m.Cycles != fused || mu.Cycles != unfused {
			t.Errorf("%v/%v: fused %d, unfused %d cycles on %s; want %d, %d on CAPE",
				opt.Device, opt.Placement, m.Cycles, mu.Cycles, m.DeviceUsed, fused, unfused)
		}
	}

	// A sharded run honours the option too.
	c, err := db.Cluster(castle.ClusterOptions{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := castle.Options{Device: castle.DeviceCAPE}
	_, cf, err := c.QueryWith(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.DisableFusion = true
	_, cu, err := c.QueryWith(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cu.Cycles <= cf.Cycles {
		t.Errorf("cluster: unfused %d cycles, fused %d; DisableFusion did not reach the nodes", cu.Cycles, cf.Cycles)
	}
}

// TestPerOperatorParallelStats: per-operator runs report their fan-out
// like forced runs do — from the owning executor for a uniform placement
// (Q1.1), from the fact stage's lanes for a mixed one (Q3.2).
func TestPerOperatorParallelStats(t *testing.T) {
	db := castle.GenerateSSB(0.01, 1)
	qs := castle.SSBQueries()
	opt := castle.Options{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator, Parallelism: 2}
	for _, tc := range []struct {
		q      castle.SSBQuery
		device string
	}{{qs[0], "CAPE"}, {qs[7], "CAPE+CPU"}} {
		_, m, err := db.QueryWith(tc.q.SQL, opt)
		if err != nil {
			t.Fatal(err)
		}
		ps := m.Parallel
		if m.DeviceUsed != tc.device || ps.Tiles != 2 || len(ps.TileCycles) != 2 {
			t.Fatalf("%s: %s with Parallel %+v; want %s with 2 tiles", tc.q.Flight, m.DeviceUsed, ps, tc.device)
		}
		if ps.ElapsedCycles != m.Cycles || ps.WorkCycles <= ps.ElapsedCycles {
			t.Fatalf("%s: elapsed %d / work %d, want elapsed = Cycles (%d) < work",
				tc.q.Flight, ps.ElapsedCycles, ps.WorkCycles, m.Cycles)
		}
	}
}

// TestForcedCPUReportsPlan: a forced-CPU run executes a placement pinned to
// the CPU over the optimized plan, and reports that plan like every other
// path.
func TestForcedCPUReportsPlan(t *testing.T) {
	db := castle.GenerateSSB(0.005, 1)
	q := castle.SSBQueries()[3].SQL
	_, cm, err := db.QueryWith(q, castle.Options{Device: castle.DeviceCAPE})
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := db.QueryWith(q, castle.Options{Device: castle.DeviceCPU})
	if err != nil {
		t.Fatal(err)
	}
	if m.Plan == "" || m.Plan != cm.Plan {
		t.Fatalf("CPU Plan = %q, want the optimized plan %q", m.Plan, cm.Plan)
	}
}
