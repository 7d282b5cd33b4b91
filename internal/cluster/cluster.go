package cluster

// cluster.go is the scatter-gather coordinator: it owns the sharded layout
// (R replicas of every shard), routes each query to the least-loaded
// replica per shard, optionally prunes shards whose range-partition key
// bounds cannot match the query's partition-key predicates, fans the
// rewritten shard program out concurrently, and merges the shipped partials
// in fixed shard order so the final relation is bit-identical to a
// single-node run.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"castle/internal/exec"
	"castle/internal/fanout"
	"castle/internal/plan"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// Config sizes a cluster.
type Config struct {
	// Nodes is the shard count N (>= 1).
	Nodes int
	// Replicas is the replica count R per shard (0 selects 1).
	Replicas int
	// Scheme partitions the fact table by hash (default) or range.
	Scheme Scheme
	// Fact is the partitioned relation (empty selects "lineorder").
	Fact string
	// Key is the partition-key column on Fact (empty selects
	// "lo_orderdate").
	Key string
	// Telemetry, when non-nil, receives per-node queue-depth gauges,
	// per-shard shuffle counters and scatter/gather phase histograms.
	Telemetry *telemetry.Telemetry
}

// Coordinator is the scatter-gather front of a sharded Castle deployment.
type Coordinator struct {
	cfg  Config
	part *Partitioning
	// nodes[s][r] is replica r of shard s. Replicas share the shard
	// database (it is immutable at query time) but queue independently.
	nodes [][]*Node

	tel         *telemetry.Telemetry
	scatterHist *telemetry.Histogram
	gatherHist  *telemetry.Histogram
	prunedCount *telemetry.Counter
	shuffleBy   []*telemetry.Counter
}

// New partitions db and boots N×R simulated nodes. It validates the
// topology (positive shard and replica counts, partition key present on
// the fact table) and returns descriptive errors instead of panicking deep
// in partitioning.
func New(db *storage.Database, cfg Config) (*Coordinator, error) {
	if cfg.Fact == "" {
		cfg.Fact = "lineorder"
	}
	if cfg.Key == "" {
		cfg.Key = "lo_orderdate"
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("cluster: replica count %d is not positive", cfg.Replicas)
	}
	part, err := Partition(db, cfg.Fact, cfg.Key, cfg.Scheme, cfg.Nodes)
	if err != nil {
		return nil, err
	}

	c := &Coordinator{cfg: cfg, part: part, tel: cfg.Telemetry}
	var reg *telemetry.Registry
	if cfg.Telemetry != nil {
		reg = cfg.Telemetry.Metrics()
		c.scatterHist = reg.Histogram(telemetry.MetricClusterPhaseMicros,
			"Coordinator phase durations in microseconds.", telemetry.L("phase", "scatter"))
		c.gatherHist = reg.Histogram(telemetry.MetricClusterPhaseMicros,
			"Coordinator phase durations in microseconds.", telemetry.L("phase", "gather"))
		c.prunedCount = reg.Counter(telemetry.MetricClusterShardsPruned,
			"Shards skipped by range-partition min/max pruning.")
	}
	c.nodes = make([][]*Node, cfg.Nodes)
	c.shuffleBy = make([]*telemetry.Counter, cfg.Nodes)
	for s := 0; s < cfg.Nodes; s++ {
		c.nodes[s] = make([]*Node, cfg.Replicas)
		for r := 0; r < cfg.Replicas; r++ {
			c.nodes[s][r] = newNode(s, r, part.Shards[s], reg)
		}
		if reg != nil {
			c.shuffleBy[s] = reg.Counter(telemetry.MetricShuffleBytes,
				"Cross-node shuffle bytes (shard partials shipped to the coordinator).",
				telemetry.L("shard", fmt.Sprintf("%d", s)))
		}
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return c.cfg.Nodes }

// Replicas returns the replica count per shard.
func (c *Coordinator) Replicas() int { return c.cfg.Replicas }

// Scheme returns the partitioning scheme.
func (c *Coordinator) Scheme() Scheme { return c.cfg.Scheme }

// Node returns replica r of shard s.
func (c *Coordinator) Node(s, r int) *Node { return c.nodes[s][r] }

// Stats is the cluster-level cost accounting of one query, the scale-out
// analogue of ParallelStats: ElapsedCycles is the critical path (slowest
// shard plus the gather), WorkCycles sums every node's work view plus the
// gather, and ShuffleBytes prices the cross-node partial-aggregate traffic
// the way BytesMoved prices DRAM.
type Stats struct {
	Shards   int
	Replicas int
	Scheme   string
	Key      string

	// ElapsedCycles = max(node cycles) + ShuffleCycles + MergeCycles.
	ElapsedCycles int64
	// WorkCycles = sum(node work cycles) + ShuffleCycles + MergeCycles.
	WorkCycles int64
	// Seconds is the simulated wall time on the critical path.
	Seconds float64
	// BytesMoved sums the nodes' DRAM traffic.
	BytesMoved int64

	// ShuffleBytes is the cross-node traffic: partial rows shipped from
	// shard executors to the coordinator, plus per-shard framing.
	ShuffleBytes int64
	// ShuffleCycles and MergeCycles are the coordinator's gather cost.
	ShuffleCycles, MergeCycles int64
	// PartialRows counts partial-aggregate rows shipped across all shards.
	PartialRows int64

	// Per-shard views, indexed by shard. Pruned shards hold zeros.
	NodeCycles       []int64
	NodeWorkCycles   []int64
	NodeShuffleBytes []int64
	NodePartialRows  []int64
	NodeNames        []string // executing replica, "" when pruned
	Pruned           []bool
	PrunedShards     int

	// ScatterEnd is the instant the last shard finished (the
	// scatter/gather wall-clock boundary for flight-record phases).
	ScatterEnd time.Time
}

// Report is the query-level telemetry of one coordinated execution.
type Report struct {
	Stats Stats
	// Breakdown carries one row per shard plus the scatter-overlap credit
	// and the gather rows; the rows partition Stats.ElapsedCycles exactly.
	Breakdown *telemetry.Breakdown
	// Plan is the rendered topology: per-shard routing, key bounds and
	// pruning decisions, then the gather step.
	Plan string
	// DeviceUsed is "CLUSTER".
	DeviceUsed string
}

// Run scatters a bound query across the shards and gathers the exact
// single-node result.
func (c *Coordinator) Run(ctx context.Context, q *plan.Query, o ExecOptions) (*exec.Result, *Report, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	prog := buildProgram(q)

	n := c.cfg.Nodes
	pruned := make([]bool, n)
	prunedWhy := make([]string, n)
	for s := 0; s < n; s++ {
		if why := c.pruneReason(q, s); why != "" {
			pruned[s], prunedWhy[s] = true, why
		}
	}

	// Scatter: each surviving shard runs on its own goroutine, routed to
	// its least-loaded replica; a node's panic is re-raised here.
	results := make([][]*exec.Result, n)
	costs := make([]NodeCost, n)
	names := make([]string, n)
	errs := make([]error, n)
	nodes := make([]*Node, n)
	for s := 0; s < n; s++ {
		if !pruned[s] {
			nodes[s] = c.pickReplica(s)
			names[s] = nodes[s].Name
		}
	}
	fanout.Run(n, func(s int) {
		if nodes[s] != nil {
			results[s], costs[s], errs[s] = nodes[s].execute(ctx, prog.stmts, o)
		}
	})
	scatterEnd := time.Now()
	for s := 0; s < n; s++ {
		if errs[s] != nil {
			return nil, nil, errs[s]
		}
	}

	// Gather: merge in fixed shard order so the accumulator's insertion
	// order — and therefore the result — is deterministic.
	st := Stats{
		Shards: n, Replicas: c.cfg.Replicas,
		Scheme: c.cfg.Scheme.String(), Key: c.cfg.Fact + "." + c.cfg.Key,
		NodeCycles: make([]int64, n), NodeWorkCycles: make([]int64, n),
		NodeShuffleBytes: make([]int64, n), NodePartialRows: make([]int64, n),
		NodeNames: names, Pruned: pruned, ScatterEnd: scatterEnd,
	}
	acc := exec.NewPartialAcc(q)
	var maxCy, sumCy int64
	var maxSec float64
	for s := 0; s < n; s++ {
		if pruned[s] {
			st.PrunedShards++
			continue
		}
		rows, bytes := prog.shuffleSize(q, results[s])
		prog.fold(q, acc, results[s])
		st.NodeCycles[s] = costs[s].Cycles
		st.NodeWorkCycles[s] = costs[s].WorkCycles
		st.NodeShuffleBytes[s] = bytes
		st.NodePartialRows[s] = rows
		st.PartialRows += rows
		st.ShuffleBytes += bytes
		st.BytesMoved += costs[s].BytesMoved
		sumCy += costs[s].Cycles
		st.WorkCycles += costs[s].WorkCycles
		if costs[s].Cycles > maxCy {
			maxCy = costs[s].Cycles
		}
		if costs[s].Seconds > maxSec {
			maxSec = costs[s].Seconds
		}
		if c.shuffleBy[s] != nil {
			c.shuffleBy[s].Add(bytes)
		}
	}
	res := acc.Result()

	st.ShuffleCycles = st.ShuffleBytes * shuffleCyclesPerB
	st.MergeCycles = st.PartialRows * gatherCyclesPerRow
	gatherCy := st.ShuffleCycles + st.MergeCycles
	st.ElapsedCycles = maxCy + gatherCy
	st.WorkCycles += gatherCy
	st.Seconds = maxSec + float64(gatherCy)/(coordinatorClockGHz*1e9)

	if c.prunedCount != nil && st.PrunedShards > 0 {
		c.prunedCount.Add(int64(st.PrunedShards))
	}
	if c.scatterHist != nil {
		c.scatterHist.Observe(float64(scatterEnd.Sub(start).Microseconds()))
		c.gatherHist.Observe(float64(time.Since(scatterEnd).Microseconds()))
	}

	rep := &Report{
		Stats:      st,
		Breakdown:  c.breakdown(&st, costs, int64(len(res.Rows)), maxCy, sumCy),
		Plan:       c.planString(&st, prunedWhy),
		DeviceUsed: "CLUSTER",
	}
	return res, rep, nil
}

// pruneReason decides whether shard s can be skipped for q, returning a
// human-readable reason ("" executes). Queries over a non-partitioned fact
// relation run on shard 0 alone — every node replicates those tables, so
// fanning out would multiply-count. Range shards are additionally pruned
// when empty or when a partition-key predicate cannot match their bounds.
func (c *Coordinator) pruneReason(q *plan.Query, s int) string {
	if q.Fact != c.part.Fact {
		if s == 0 {
			return ""
		}
		return "replicated relation"
	}
	if c.cfg.Scheme != SchemeRange {
		return ""
	}
	if c.part.Empty[s] {
		return "empty"
	}
	lo, hi := c.part.KeyMin[s], c.part.KeyMax[s]
	for _, p := range q.FactPreds {
		if p.Column != c.part.Key || p.Table != c.part.Fact {
			continue
		}
		if !maybeInRange(p, lo, hi) {
			return "key range"
		}
	}
	return ""
}

// maybeInRange reports whether any value in [lo, hi] can satisfy p.
func maybeInRange(p plan.Predicate, lo, hi uint32) bool {
	if p.Never {
		return false
	}
	switch p.Op {
	case plan.PredEQ:
		return p.Value >= lo && p.Value <= hi
	case plan.PredNE:
		return !(lo == hi && lo == p.Value)
	case plan.PredLT:
		return lo < p.Value
	case plan.PredLE:
		return lo <= p.Value
	case plan.PredGT:
		return hi > p.Value
	case plan.PredGE:
		return hi >= p.Value
	case plan.PredBetween:
		return p.Lo <= hi && p.Hi >= lo
	case plan.PredIn:
		for _, v := range p.Values {
			if v >= lo && v <= hi {
				return true
			}
		}
		return false
	}
	return true
}

// pickReplica routes shard s to its least-loaded replica (ties to the
// lowest index, so an idle cluster is deterministic).
func (c *Coordinator) pickReplica(s int) *Node {
	best := c.nodes[s][0]
	bestDepth := best.QueueDepth()
	for _, cand := range c.nodes[s][1:] {
		if d := cand.QueueDepth(); d < bestDepth {
			best, bestDepth = cand, d
		}
	}
	return best
}

// breakdown builds the EXPLAIN ANALYZE rows: one row per shard (its
// elapsed cycles and shipped partial rows), a negative scatter-overlap
// credit that folds concurrent shard time back to the critical path, and
// the gather's shuffle and merge rows. The rows partition ElapsedCycles
// exactly, the same contract every single-node breakdown keeps.
func (c *Coordinator) breakdown(st *Stats, costs []NodeCost, groups, maxCy, sumCy int64) *telemetry.Breakdown {
	b := &telemetry.Breakdown{Device: "CLUSTER", TotalCycles: st.ElapsedCycles}
	executed := 0
	for s := 0; s < st.Shards; s++ {
		if st.Pruned[s] {
			b.Operators = append(b.Operators, telemetry.OperatorStats{
				Operator: fmt.Sprintf("shard[%d]: pruned", s), Rows: 0,
			})
			continue
		}
		executed++
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: fmt.Sprintf("shard[%d]", s),
			Device:   costs[s].Device,
			Cycles:   costs[s].Cycles,
			Rows:     st.NodePartialRows[s],
		})
	}
	if executed > 1 {
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "scatter-overlap", Cycles: maxCy - sumCy, Rows: -1,
		})
	}
	b.Operators = append(b.Operators,
		telemetry.OperatorStats{Operator: "gather:shuffle", Cycles: st.ShuffleCycles, Rows: st.PartialRows},
		telemetry.OperatorStats{Operator: "gather:merge", Cycles: st.MergeCycles, Rows: groups},
	)
	return b
}

// planString renders the topology the way optree renders operator trees:
// one header line, one line per shard with its routing decision, one
// gather line.
func (c *Coordinator) planString(st *Stats, prunedWhy []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d-shard %s on %s, %d replica(s)\n",
		st.Shards, st.Scheme, st.Key, st.Replicas)
	for s := 0; s < st.Shards; s++ {
		rows := c.part.Shards[s].MustTable(c.part.Fact).Rows()
		fmt.Fprintf(&b, "  shard[%d] rows=%d", s, rows)
		if c.cfg.Scheme == SchemeRange && !c.part.Empty[s] {
			fmt.Fprintf(&b, " keys=[%d,%d]", c.part.KeyMin[s], c.part.KeyMax[s])
		}
		if st.Pruned[s] {
			fmt.Fprintf(&b, " -> pruned (%s)", prunedWhy[s])
		} else {
			fmt.Fprintf(&b, " -> %s", st.NodeNames[s])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  gather: fixed-order merge, %d partial rows, %d shuffle bytes",
		st.PartialRows, st.ShuffleBytes)
	return b.String()
}
