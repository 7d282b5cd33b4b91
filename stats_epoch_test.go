package castle_test

// stats_epoch_test.go pins the statistics epoch: a statistics change —
// re-import or explicit refresh — must stale every cached plan, since
// placements are priced from the histograms.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	castle "castle"
)

func hybridOpts() castle.Options {
	return castle.Options{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator}
}

// writeSalesCSV writes n rows whose s_val distribution is controlled by
// skew: skew=false spreads values uniformly over [0,1000); skew=true puts
// 99%% of rows at value 5.
func writeSalesCSV(t *testing.T, path string, n int, skew bool) {
	t.Helper()
	var b strings.Builder
	b.WriteString("s_val,s_qty\n")
	for i := 0; i < n; i++ {
		v := (i * 7919) % 1000
		if skew && i%100 != 0 {
			v = 5
		}
		fmt.Fprintf(&b, "%d,%d\n", v, i%10)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReimportStalesPlans is the stats-epoch regression: re-importing a
// relation whose value distribution flipped must invalidate the prepared
// plan and re-price against fresh histograms — serving the cached plan would
// keep the stale selectivity forever.
func TestReimportStalesPlans(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sales.csv")
	db := castle.New()

	writeSalesCSV(t, path, 4096, false)
	if err := db.ImportCSV("sales", path); err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT SUM(s_qty) FROM sales WHERE s_val <= 10`
	_, m1, err := db.QueryWith(sql, hybridOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.QueryWith(sql, hybridOpts()); err != nil {
		t.Fatal(err)
	}
	st := db.PlanCacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("warm-up cache stats: %+v", st)
	}

	// Same name, same schema, inverted distribution: s_val <= 10 now matches
	// ~99% of rows instead of ~1%.
	writeSalesCSV(t, path, 4096, true)
	if err := db.ImportCSV("sales", path); err != nil {
		t.Fatal(err)
	}
	rows, m2, err := db.QueryWith(sql, hybridOpts())
	if err != nil {
		t.Fatal(err)
	}
	st = db.PlanCacheStats()
	// No new hit: the re-import flushed the cache and the query re-planned.
	if st.Hits != 1 || st.Misses != 2 || st.Flushes < 1 {
		t.Fatalf("post-import cache stats (want a flush and a miss, no new hit): %+v", st)
	}
	// The rendered plan carries the histogram's cardinality annotations;
	// flipping the distribution flips the filter's survivor estimate, so a
	// genuinely re-planned query renders differently. (Cycle totals can tie:
	// a scalar CAPE tail prices independently of selectivity.)
	if m2.Plan == m1.Plan {
		t.Errorf("re-planned query rendered the identical plan; stale statistics suspected:\n%s",
			m2.Plan)
	}
	// Sanity: the answer reflects the new contents (99%+ of 4096 rows match).
	if len(rows.Data) != 1 {
		t.Fatalf("unexpected result shape: %v", rows.Data)
	}
}

// TestRefreshStatsStalesPlans: an explicit statistics refresh — no data or
// schema change at all — must also stale cached plans, since placements are
// priced from the histograms.
func TestRefreshStatsStalesPlans(t *testing.T) {
	db := castle.GenerateSSB(0.01, 20260704)
	sql := castle.SSBQueries()[0].SQL
	if _, _, err := db.QueryWith(sql, hybridOpts()); err != nil {
		t.Fatal(err)
	}
	db.RefreshStats()
	if _, _, err := db.QueryWith(sql, hybridOpts()); err != nil {
		t.Fatal(err)
	}
	st := db.PlanCacheStats()
	if st.Hits != 0 || st.Misses != 2 || st.Flushes != 1 {
		t.Fatalf("cache served a plan across a stats refresh: %+v", st)
	}
}
