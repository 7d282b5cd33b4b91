package castle_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	castle "castle"
)

var updateEquivalence = flag.Bool("update", false, "rewrite testdata/run_equivalence.golden")

// TestRunPathEquivalenceGolden pins what every execution mode reports for
// the 13 SSB queries at SF 0.01 (data seed 1) and K ∈ {1,2}: a hash of the
// result rows, Cycles, DeviceUsed, every breakdown row (name, device,
// cycles), the placement estimates and the streaming counters. The
// simulator is deterministic for a fixed data seed, so any refactor of the
// run paths must reproduce the file byte for byte. Regenerate with
// `go test . -run RunPathEquivalence -update` only for an intended change.
func TestRunPathEquivalenceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 104 simulated queries")
	}
	db := castle.GenerateSSB(0.01, 1)
	modes := []struct {
		name string
		opt  castle.Options
	}{
		{"cape", castle.Options{Device: castle.DeviceCAPE}},
		{"cpu", castle.Options{Device: castle.DeviceCPU}},
		{"hybrid", castle.Options{Device: castle.DeviceHybrid}},
		{"per-operator", castle.Options{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator}},
	}
	var b strings.Builder
	fmt.Fprintln(&b, "SSB run-path equivalence (SF 0.01, data seed 1)")
	for _, q := range castle.SSBQueries() {
		for _, mode := range modes {
			for _, k := range []int{1, 2} {
				opt := mode.opt
				opt.Parallelism = k
				rows, m, err := db.QueryWith(q.SQL, opt)
				if err != nil {
					t.Fatalf("%s %s K=%d: %v", q.Flight, mode.name, k, err)
				}
				fmt.Fprintf(&b, "\n%s %s K=%d rows=%016x cycles=%d device=%s est=%d alt=%d batches=%d peak=%d overlap=%d\n",
					q.Flight, mode.name, k, rowsHash(rows), m.Cycles, m.DeviceUsed,
					m.EstCycles, m.AltEstCycles, m.StreamBatches, m.PeakBatchBytes, m.XferOverlapCycles)
				fmt.Fprintf(&b, "  breakdown device=%s total=%d\n", m.Breakdown.Device, m.Breakdown.TotalCycles)
				for _, o := range m.Breakdown.Operators {
					fmt.Fprintf(&b, "  %-20s %-9s %d\n", o.Operator, o.Device, o.Cycles)
				}
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "run_equivalence.golden")
	if *updateEquivalence {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s diverges at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

// rowsHash folds a result relation's encoded rows, in order, into one
// FNV-1a value.
func rowsHash(r *castle.Rows) uint64 {
	h := fnv.New64a()
	for _, row := range r.Raw {
		for _, k := range row.Keys {
			fmt.Fprintf(h, "%d,", k)
		}
		h.Write([]byte{'|'})
		for _, a := range row.Aggs {
			fmt.Fprintf(h, "%d,", a)
		}
		h.Write([]byte{';'})
	}
	return h.Sum64()
}
