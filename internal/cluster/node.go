package cluster

// node.go models one Castle node of the cluster: its shard database, its
// own statistics catalog, and a single-admission execution queue. Every
// statement runs on fresh simulated engines (exactly like the single-node
// facade), so nodes are safe under concurrent coordinator traffic; the
// queue-depth counter is what the coordinator's replica load balancer
// reads.

import (
	"context"
	"fmt"
	"sync/atomic"

	"castle/internal/cape"
	"castle/internal/exec"
	"castle/internal/optimizer"
	"castle/internal/placer"
	"castle/internal/plan"
	"castle/internal/stats"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// ExecOptions selects how shard statements execute on every node.
type ExecOptions struct {
	// Device is "cape", "cpu" or "hybrid" (empty selects "hybrid").
	Device string
	// PerOperator splits hybrid execution per operator instead of routing
	// the whole query to one device.
	PerOperator bool
	// Config is the CAPE design point (zero MAXVL selects the default
	// enhanced configuration).
	Config cape.Config
	// Parallelism is the per-node fact-sweep fan-out (tiles or cores).
	Parallelism int
	// DisableFusion turns off CAPE operator fusion (§7.4 ablation) on
	// every uniform CAPE run.
	DisableFusion bool
}

func (o ExecOptions) withDefaults() (ExecOptions, error) {
	if o.Device == "" {
		o.Device = "hybrid"
	}
	switch o.Device {
	case "cape", "cpu", "hybrid":
	default:
		return o, fmt.Errorf("cluster: unknown device %q (want cape, cpu or hybrid)", o.Device)
	}
	if o.Config.MAXVL == 0 {
		o.Config = cape.DefaultConfig().WithEnhancements()
	}
	return o, nil
}

// NodeCost is one node's simulated cost for a shard program: the elapsed
// view (critical path of its fact sweep), the work view (summed over
// tiles), DRAM traffic, and simulated seconds.
type NodeCost struct {
	Device     string
	Cycles     int64
	WorkCycles int64
	BytesMoved int64
	Seconds    float64
}

// Node is one simulated Castle node: a replica of one shard with its own
// catalog and a one-at-a-time execution queue.
type Node struct {
	Name    string
	Shard   int
	Replica int

	db  *storage.Database
	cat *stats.Catalog

	sem   chan struct{} // capacity 1: one executing statement per node
	depth atomic.Int64  // queued + executing
	gauge *telemetry.Gauge
}

func newNode(shard, replica int, db *storage.Database, reg *telemetry.Registry) *Node {
	n := &Node{
		Name:    fmt.Sprintf("shard%d/r%d", shard, replica),
		Shard:   shard,
		Replica: replica,
		db:      db,
		cat:     stats.Collect(db),
		sem:     make(chan struct{}, 1),
	}
	if reg != nil {
		n.gauge = reg.Gauge(telemetry.MetricNodeQueueDepth,
			"Queries queued or executing on one simulated cluster node.",
			telemetry.L("node", n.Name))
	}
	return n
}

// QueueDepth reports queries queued or executing on this node.
func (n *Node) QueueDepth() int64 { return n.depth.Load() }

// execute runs a shard program (the rewritten partial query plus any
// COUNT(DISTINCT) expansion statements) through the node's queue and
// returns one result per statement with the summed node cost.
func (n *Node) execute(ctx context.Context, stmts []*plan.Query, o ExecOptions) ([]*exec.Result, NodeCost, error) {
	n.depth.Add(1)
	if n.gauge != nil {
		n.gauge.Add(1)
	}
	defer func() {
		n.depth.Add(-1)
		if n.gauge != nil {
			n.gauge.Add(-1)
		}
	}()

	select {
	case n.sem <- struct{}{}:
		defer func() { <-n.sem }()
	case <-ctx.Done():
		return nil, NodeCost{}, ctx.Err()
	}

	var cost NodeCost
	out := make([]*exec.Result, len(stmts))
	for i, q := range stmts {
		res, c, err := n.run(ctx, q, o)
		if err != nil {
			return nil, NodeCost{}, fmt.Errorf("%s: %w", n.Name, err)
		}
		out[i] = res
		cost.Device = c.Device
		cost.Cycles += c.Cycles
		cost.WorkCycles += c.WorkCycles
		cost.BytesMoved += c.BytesMoved
		cost.Seconds += c.Seconds
	}
	return out, cost, nil
}

// run executes one statement on fresh engines along the single-node
// facade's one path: the shared chooser resolves an unpriced placement
// (pinned, routed or per operator) and the placed executor runs it. The
// cost comes from the placed run's books: Cycles is the elapsed total,
// WorkCycles every cycle either device spent.
func (n *Node) run(ctx context.Context, q *plan.Query, o ExecOptions) (*exec.Result, NodeCost, error) {
	cfg := o.Config
	phys, err := optimizer.Optimize(q, n.cat, cfg.MAXVL)
	if err != nil {
		return nil, NodeCost{}, err
	}
	req := placer.Request{Mode: placer.Routed}
	switch {
	case o.Device == "cape":
		req = placer.Request{Mode: placer.Pinned, Device: plan.DeviceCAPE}
	case o.Device == "cpu":
		req = placer.Request{Mode: placer.Pinned, Device: plan.DeviceCPU}
	case o.PerOperator:
		req.Mode = placer.PerOperator
	}
	pp, err := placer.Choose(phys, n.cat, cfg.MAXVL, req)
	if err != nil {
		return nil, NodeCost{}, err
	}
	opts := exec.DefaultCastleOptions()
	opts.Fusion, opts.Parallelism = !o.DisableFusion, o.Parallelism
	x := exec.NewPlacedFor(pp, cfg, opts, n.cat)
	res, err := x.RunContext(ctx, pp, n.db)
	if err != nil {
		return nil, NodeCost{}, err
	}
	cost := NodeCost{
		Device:     "CAPE+CPU",
		Cycles:     x.Breakdown().TotalCycles,
		WorkCycles: x.ParallelStats().WorkCycles,
	}
	if dev, uniform := pp.Uniform(); uniform {
		cost.Device = dev.String()
	}
	cost.Seconds, cost.BytesMoved = x.Cost()
	return res, cost, nil
}
