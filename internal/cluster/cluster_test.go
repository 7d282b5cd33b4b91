package cluster

import (
	"context"
	"strings"
	"testing"

	"castle/internal/exec"
	"castle/internal/fanout"
	"castle/internal/plan"
	"castle/internal/sql"
	"castle/internal/ssb"
	"castle/internal/storage"
)

func testDB(t *testing.T) *storage.Database {
	t.Helper()
	return ssb.Generate(ssb.Config{SF: 0.002, Seed: 1})
}

func bind(t *testing.T, db *storage.Database, sqlText string) *plan.Query {
	t.Helper()
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		t.Fatalf("parse %q: %v", sqlText, err)
	}
	q, err := plan.Bind(stmt, db)
	if err != nil {
		t.Fatalf("bind %q: %v", sqlText, err)
	}
	return q
}

func TestNewValidation(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero nodes", Config{Nodes: 0}, "shard count"},
		{"negative nodes", Config{Nodes: -3}, "shard count"},
		{"negative replicas", Config{Nodes: 2, Replicas: -1}, "replica count"},
		{"bad key", Config{Nodes: 2, Key: "lo_nope"}, "partition key"},
		{"bad fact", Config{Nodes: 2, Fact: "nope"}, "fact table"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(db, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New(%+v) err = %v, want mention of %q", tc.cfg, err, tc.want)
			}
		})
	}
}

// TestShardedMatchesSingleNode asserts the core contract: every SSB query
// returns a bit-identical relation at every shard count, for both schemes,
// on every device path.
func TestShardedMatchesSingleNode(t *testing.T) {
	db := testDB(t)
	queries := ssb.Queries()
	for _, scheme := range []Scheme{SchemeHash, SchemeRange} {
		for _, n := range []int{1, 2, 4} {
			coord, err := New(db, Config{Nodes: n, Replicas: 1, Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			for _, dev := range []string{"cpu", "cape"} {
				for _, q := range queries {
					bq := bind(t, db, q.SQL)
					want := exec.Reference(bq, db)
					got, rep, err := coord.Run(context.Background(), bq, ExecOptions{Device: dev})
					if err != nil {
						t.Fatalf("%s n=%d %s Q%d: %v", scheme, n, dev, q.Num, err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s n=%d %s Q%d: sharded result differs from reference", scheme, n, dev, q.Num)
					}
					if rep.Breakdown.SumCycles() != rep.Breakdown.TotalCycles {
						t.Fatalf("%s n=%d %s Q%d: breakdown rows sum %d != total %d",
							scheme, n, dev, q.Num, rep.Breakdown.SumCycles(), rep.Breakdown.TotalCycles)
					}
					if rep.Breakdown.TotalCycles != rep.Stats.ElapsedCycles {
						t.Fatalf("%s n=%d %s Q%d: breakdown total %d != elapsed %d",
							scheme, n, dev, q.Num, rep.Breakdown.TotalCycles, rep.Stats.ElapsedCycles)
					}
					if rep.Stats.WorkCycles < rep.Stats.ElapsedCycles {
						t.Fatalf("%s n=%d %s Q%d: work %d < elapsed %d",
							scheme, n, dev, q.Num, rep.Stats.WorkCycles, rep.Stats.ElapsedCycles)
					}
				}
			}
		}
	}
}

// TestDistributedAggregates exercises the non-distributive aggregates the
// shard rewrite has to handle specially: AVG's floor division over the
// merged row count and COUNT(DISTINCT)'s cross-shard value-set union.
func TestDistributedAggregates(t *testing.T) {
	db := testDB(t)
	q := &plan.Query{
		Fact:    "lineorder",
		GroupBy: []plan.ColRef{{Table: "lineorder", Column: "lo_discount"}},
		Aggs: []plan.AggExpr{
			{Kind: plan.AggAvg, A: "lo_extendedprice"},
			{Kind: plan.AggCountDistinct, A: "lo_quantity"},
			{Kind: plan.AggMin, A: "lo_revenue"},
			{Kind: plan.AggMax, A: "lo_revenue"},
			{Kind: plan.AggCount},
		},
	}
	want := exec.Reference(q, db)
	for _, scheme := range []Scheme{SchemeHash, SchemeRange} {
		for _, n := range []int{2, 4} {
			coord, err := New(db, Config{Nodes: n, Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := coord.Run(context.Background(), q, ExecOptions{Device: "cpu"})
			if err != nil {
				t.Fatalf("%s n=%d: %v", scheme, n, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s n=%d: AVG/COUNT DISTINCT merge diverged from reference", scheme, n)
			}
		}
	}
}

// TestGrandAggregateZeroRow: a grand aggregate whose predicate matches no
// rows must still return the single zero row, even when pruning removes
// every shard.
func TestGrandAggregateZeroRow(t *testing.T) {
	db := testDB(t)
	q := &plan.Query{
		Fact:      "lineorder",
		FactPreds: []plan.Predicate{{Table: "lineorder", Column: "lo_orderdate", Op: plan.PredGT, Value: ^uint32(0) - 1}},
		Aggs:      []plan.AggExpr{{Kind: plan.AggSumCol, A: "lo_revenue"}, {Kind: plan.AggCount}},
	}
	want := exec.Reference(q, db)
	if len(want.Rows) != 1 {
		t.Fatalf("reference grand aggregate rows = %d, want 1", len(want.Rows))
	}
	for _, scheme := range []Scheme{SchemeHash, SchemeRange} {
		coord, err := New(db, Config{Nodes: 4, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		got, rep, err := coord.Run(context.Background(), q, ExecOptions{Device: "cpu"})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: zero-row grand aggregate diverged", scheme)
		}
		if scheme == SchemeRange && rep.Stats.PrunedShards != 4 {
			t.Fatalf("range: pruned %d shards, want 4", rep.Stats.PrunedShards)
		}
	}
}

// TestRangePruning: a tight partition-key predicate must prune range
// shards, the pruning must be visible in the plan, and the pruned result
// must still match single-node.
func TestRangePruning(t *testing.T) {
	db := testDB(t)
	kc := db.MustTable("lineorder").MustColumn("lo_orderdate")
	q := &plan.Query{
		Fact:      "lineorder",
		FactPreds: []plan.Predicate{{Table: "lineorder", Column: "lo_orderdate", Op: plan.PredLE, Value: kc.Min}},
		Aggs:      []plan.AggExpr{{Kind: plan.AggSumCol, A: "lo_revenue"}},
	}
	coord, err := New(db, Config{Nodes: 4, Scheme: SchemeRange})
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := coord.Run(context.Background(), q, ExecOptions{Device: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(exec.Reference(q, db)) {
		t.Fatal("pruned execution diverged from reference")
	}
	if rep.Stats.PrunedShards == 0 {
		t.Fatal("expected key-range pruning with a min-key predicate")
	}
	if !strings.Contains(rep.Plan, "pruned (key range)") {
		t.Fatalf("plan does not surface pruning:\n%s", rep.Plan)
	}
	// Hash partitioning cannot prune: the same query must execute all shards.
	hcoord, err := New(db, Config{Nodes: 4, Scheme: SchemeHash})
	if err != nil {
		t.Fatal(err)
	}
	_, hrep, err := hcoord.Run(context.Background(), q, ExecOptions{Device: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if hrep.Stats.PrunedShards != 0 {
		t.Fatalf("hash scheme pruned %d shards", hrep.Stats.PrunedShards)
	}
}

// TestReplicaLoadBalancing: with R=2 and an artificially busy replica 0,
// the coordinator must route to replica 1.
func TestReplicaLoadBalancing(t *testing.T) {
	db := testDB(t)
	coord, err := New(db, Config{Nodes: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	coord.Node(0, 0).depth.Add(5)
	defer coord.Node(0, 0).depth.Add(-5)
	q := bind(t, db, ssb.Queries()[0].SQL)
	_, rep, err := coord.Run(context.Background(), q, ExecOptions{Device: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.NodeNames[0] != "shard0/r1" {
		t.Fatalf("shard 0 routed to %s, want the idle replica shard0/r1", rep.Stats.NodeNames[0])
	}
	if rep.Stats.NodeNames[1] != "shard1/r0" {
		t.Fatalf("shard 1 routed to %s, want shard1/r0", rep.Stats.NodeNames[1])
	}
}

// TestEmptyShards: more hash shards than distinct partition-key values
// leaves some shards empty; execution must stay correct through them.
func TestEmptyShards(t *testing.T) {
	sdb := storage.NewDatabase()
	ft := storage.NewTable("lineorder")
	ft.AddIntColumn("lo_orderdate", []uint32{7, 7, 7, 7})
	ft.AddIntColumn("lo_revenue", []uint32{10, 20, 30, 40})
	sdb.Add(ft)
	q := &plan.Query{
		Fact: "lineorder",
		Aggs: []plan.AggExpr{{Kind: plan.AggSumCol, A: "lo_revenue"}, {Kind: plan.AggCount}},
	}
	want := exec.Reference(q, sdb)
	for _, scheme := range []Scheme{SchemeHash, SchemeRange} {
		coord, err := New(sdb, Config{Nodes: 4, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := coord.Run(context.Background(), q, ExecOptions{Device: "cpu"})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: result over empty shards diverged", scheme)
		}
	}
}

func TestParseScheme(t *testing.T) {
	if s, err := ParseScheme(""); err != nil || s != SchemeHash {
		t.Fatalf("ParseScheme(\"\") = %v, %v", s, err)
	}
	if s, err := ParseScheme("range"); err != nil || s != SchemeRange {
		t.Fatalf("ParseScheme(range) = %v, %v", s, err)
	}
	if _, err := ParseScheme("modulo"); err == nil {
		t.Fatal("ParseScheme(modulo) should fail")
	}
}

// TestNodePanicReachesCaller: a kernel panic on one node's goroutine is
// re-raised on the goroutine that called Run, where a server's recover
// can answer it, instead of killing the process.
func TestNodePanicReachesCaller(t *testing.T) {
	db := testDB(t)
	q := &plan.Query{Fact: "lineorder", Aggs: []plan.AggExpr{{Kind: plan.AggCount}}}
	coord, err := New(db, Config{Nodes: 2, Scheme: SchemeHash})
	if err != nil {
		t.Fatal(err)
	}
	defer exec.SetFaultHook(func(context.Context) { panic("injected node fault") })()
	defer func() {
		p, ok := recover().(*fanout.Panic)
		if !ok || p.Value != "injected node fault" {
			t.Fatalf("recovered %#v, want the node's *fanout.Panic", p)
		}
	}()
	coord.Run(context.Background(), q, ExecOptions{Device: "cpu"})
	t.Fatal("Run returned normally after a node panicked")
}
