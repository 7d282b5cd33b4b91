package castle

// cluster.go is the public face of the scatter-gather scale-out tier: a
// Cluster wraps a DB's data partitioned across N simulated Castle nodes
// (with R replicas each) behind the same QueryContext surface as the DB
// itself, so callers — the server in particular — switch between
// single-node and sharded execution without changing how they submit
// queries or read metrics. Results are bit-identical to single-node
// execution at every topology.

import (
	"context"
	"fmt"
	"time"

	"castle/internal/cluster"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/sql"
	"castle/internal/telemetry"
)

// ClusterOptions sizes a sharded deployment of a DB.
type ClusterOptions struct {
	// Nodes is the shard count N (must be >= 1).
	Nodes int
	// Replicas is the replica count R per shard (0 selects 1). The
	// coordinator load-balances each shard's traffic to the least-loaded
	// replica by queue depth.
	Replicas int
	// Partition is the partitioning scheme: "hash" (default) or "range".
	// Range partitioning enables shard pruning when queries predicate on
	// the partition key.
	Partition string
	// PartitionKey is the fact column rows are partitioned on (empty
	// selects "lo_orderdate"). It must exist in the schema.
	PartitionKey string
	// Telemetry, when non-nil, receives the cluster-level instruments:
	// per-node queue-depth gauges, per-shard shuffle-byte counters and
	// scatter/gather phase histograms. Query-level telemetry (spans,
	// flight records) still flows through Options.Telemetry per call.
	Telemetry *Telemetry
}

// ClusterStats is the cluster-level cost accounting of one sharded query:
// per-node elapsed/work cycle views, shuffle traffic, and pruning
// decisions. See Metrics.Cluster.
type ClusterStats = cluster.Stats

// Cluster is a sharded deployment of a DB behind a scatter-gather
// coordinator. Create with DB.Cluster; the parent DB remains fully usable
// (shards share the parent's immutable column data). Schema mutations on
// the parent after clustering are not reflected in the shards.
type Cluster struct {
	db    *DB
	coord *cluster.Coordinator
}

// Cluster partitions the database across N simulated nodes and returns the
// coordinator-backed query surface. Topology errors (non-positive shard or
// replica counts, a partition key absent from the schema) are returned
// descriptively rather than panicking in partitioning.
func (db *DB) Cluster(o ClusterOptions) (*Cluster, error) {
	scheme, err := cluster.ParseScheme(o.Partition)
	if err != nil {
		return nil, err
	}
	coord, err := cluster.New(db.store, cluster.Config{
		Nodes:     o.Nodes,
		Replicas:  o.Replicas,
		Scheme:    scheme,
		Key:       o.PartitionKey,
		Telemetry: o.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{db: db, coord: coord}, nil
}

// Shards returns the shard count N.
func (c *Cluster) Shards() int { return c.coord.Shards() }

// Replicas returns the replica count R per shard.
func (c *Cluster) Replicas() int { return c.coord.Replicas() }

// DB returns the parent database (for decoding and schema queries).
func (c *Cluster) DB() *DB { return c.db }

// String describes the topology for startup logs.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster{shards=%d replicas=%d scheme=%s}",
		c.coord.Shards(), c.coord.Replicas(), c.coord.Scheme())
}

// QueryContext executes SQL across the cluster: the statement is prepared
// once at the coordinator, scattered to one replica per (unpruned) shard,
// and the partial aggregates are merged in fixed shard order — the result
// is bit-identical to DB.QueryContext at every topology. Metrics report
// the cluster cost model: Cycles is the critical path (slowest shard plus
// gather), Metrics.Cluster carries the per-node views and shuffle bytes,
// and Breakdown has one row per shard partitioning Cycles exactly.
func (c *Cluster) QueryContext(ctx context.Context, sqlText string, opt Options) (*Rows, *Metrics, error) {
	start := time.Now()
	rows, m, err := c.queryContext(ctx, sqlText, opt, start)
	recordFailure(opt.Telemetry, sqlText, start, err)
	return rows, m, err
}

// QueryWith executes SQL across the cluster with a background context.
func (c *Cluster) QueryWith(sqlText string, opt Options) (*Rows, *Metrics, error) {
	return c.QueryContext(context.Background(), sqlText, opt)
}

func (c *Cluster) queryContext(ctx context.Context, sqlText string, opt Options, start time.Time) (*Rows, *Metrics, error) {
	cfg, err := opt.validate()
	if err != nil {
		return nil, nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	tel := opt.Telemetry
	qs := tel.StartSpan("query")
	defer qs.End()

	bound, err := c.db.prepareClusterBound(qs, sqlText, opt)
	if err != nil {
		return nil, nil, err
	}
	prepEnd := time.Now()

	es := qs.Child("execute")
	res, rep, err := c.coord.Run(ctx, bound, cluster.ExecOptions{
		Device:        opt.Device.String(),
		PerOperator:   opt.Device == DeviceHybrid && opt.Placement == PlacementPerOperator,
		Config:        cfg,
		Parallelism:   opt.Parallelism,
		DisableFusion: opt.DisableFusion,
	})
	if err != nil {
		es.End()
		return nil, nil, err
	}
	cs := rep.Stats
	es.SetInt("cycles", cs.ElapsedCycles)
	es.SetStr("device", rep.DeviceUsed)
	es.SetInt("shards", int64(cs.Shards))
	es.End()

	m := &Metrics{
		Cycles:     cs.ElapsedCycles,
		Seconds:    cs.Seconds,
		BytesMoved: cs.BytesMoved,
		Plan:       rep.Plan,
		DeviceUsed: rep.DeviceUsed,
		Breakdown:  rep.Breakdown,
		Cluster:    &cs,
	}
	c.db.recordQueryMetrics(tel, qs, m, "")
	// The lifecycle phases telescope at microsecond boundaries, so they sum
	// exactly to the record's wall time.
	prepMicros := prepEnd.Sub(start).Microseconds()
	scatMicros := cs.ScatterEnd.Sub(start).Microseconds()
	m.FlightSeq = c.db.recordFlight(tel, sqlText, opt, m, len(res.Rows), start,
		telemetry.FlightPhase{Name: "prepare", Micros: prepMicros},
		telemetry.FlightPhase{Name: "scatter", Micros: scatMicros - prepMicros},
		telemetry.FlightPhase{Name: "gather", Micros: time.Since(start).Microseconds() - scatMicros})
	return c.db.decode(res), m, nil
}

// ExplainAnalyze executes across the cluster and returns the rendered
// topology-aware breakdown: one row per shard (plus the scatter-overlap
// credit and gather rows) partitioning the cycle total exactly.
func (c *Cluster) ExplainAnalyze(sqlText string, opt Options) (*Rows, *Metrics, string, error) {
	rows, m, err := c.QueryWith(sqlText, opt)
	if err != nil {
		return nil, nil, "", err
	}
	return rows, m, m.Breakdown.Format(), nil
}

// prepareClusterBound parses and binds a statement for coordinator
// execution, consulting the prepared-plan cache. Cluster preparation stops
// at binding — every node optimizes against its own shard's statistics —
// so the cache key ignores optimizer inputs.
func (db *DB) prepareClusterBound(qs *telemetry.Span, sqlText string, opt Options) (*plan.Query, error) {
	key := optimizer.Fingerprint(sqlText, "cluster", 0, plan.ZigZag, false)
	version := db.storeVersion()
	if !opt.DisablePlanCache {
		if cp, ok := db.plans.Get(key, version); ok {
			qs.SetStr("plan_cache", "hit")
			db.countPlanCache(opt.Telemetry, true)
			return cp.Bound, nil
		}
	}
	sp := qs.Child("parse")
	stmt, err := sql.Parse(sqlText)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = qs.Child("bind")
	bound, err := plan.Bind(stmt, db.store)
	sp.End()
	if err != nil {
		return nil, err
	}
	if !opt.DisablePlanCache {
		db.plans.Put(key, version, optimizer.CachedPlan{Bound: bound})
		qs.SetStr("plan_cache", "miss")
		db.countPlanCache(opt.Telemetry, false)
	}
	return bound, nil
}
