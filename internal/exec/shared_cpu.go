package exec

// shared_cpu.go runs a multi-query shared scan on one baseline CPU core:
// the fact table sweeps in bounded row chunks; each chunk's union of member
// fact columns streams from memory once, then every member's predicate
// sets, probes and aggregation visit run against the now-resident chunk
// with resident kernel variants that bill compute and random accesses but
// not a second column stream. Member results are bit-identical to solo
// execution — the functional kernels are unchanged, only the charge model
// knows the columns are shared. Shared stream cycles are attributed
// pro-rata (largest remainder) so member totals partition the group run
// exactly, mirroring shared_cape.go.

import (
	"context"
	"fmt"
	"sort"

	"castle/internal/baseline"
	"castle/internal/plan"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// CPUSharedEligible reports whether the member queries can run as one fused
// CPU sweep: they must sweep the same fact table. (Unlike CAPE there is no
// register budget and SUM(a*b) members are fine — the visit loop computes
// products row-at-a-time.)
func CPUSharedEligible(queries []*plan.Query) error {
	if len(queries) == 0 {
		return fmt.Errorf("exec: shared CPU sweep needs at least one member")
	}
	fact := queries[0].Fact
	for i, q := range queries {
		if q == nil {
			return fmt.Errorf("exec: shared CPU sweep: member %d is nil", i)
		}
		if q.Fact != fact {
			return fmt.Errorf("exec: shared CPU sweep: member %d sweeps %q, group sweeps %q", i, q.Fact, fact)
		}
	}
	return nil
}

// sharedQueryCols returns the union of fact-storage columns the fused CPU
// sweep streams once per chunk, in first-use order (the CPU twin of
// plan.SharedScan.SharedColumns, keyed off bound queries rather than
// physical plans).
func sharedQueryCols(queries []*plan.Query) []string {
	seen := make(map[string]struct{})
	var cols []string
	add := func(name string) {
		if name == "" {
			return
		}
		if _, dup := seen[name]; dup {
			return
		}
		seen[name] = struct{}{}
		cols = append(cols, name)
	}
	for _, q := range queries {
		for _, p := range q.FactPreds {
			add(p.Column)
		}
		for _, j := range q.Joins {
			add(j.FactFK)
		}
		for _, a := range q.Aggs {
			if a.Kind != plan.AggCount {
				add(a.A)
			}
			if a.Kind == plan.AggSumMul || a.Kind == plan.AggSumSub {
				add(a.B)
			}
		}
		for _, g := range q.GroupBy {
			if g.Table == q.Fact {
				add(g.Column)
			}
		}
	}
	return cols
}

// RunSharedCPU executes the member queries as one fused fact sweep on cpu
// in defaultStreamBatchRows chunks. The group runs serially on the single
// core — a group takes one device lease, not N. Cancellation is checked at
// every member-phase boundary within each chunk.
func RunSharedCPU(ctx context.Context, cpu *baseline.CPU, queries []*plan.Query,
	db *storage.Database) ([]SharedMemberResult, SharedStats, error) {

	if ctx == nil {
		ctx = context.Background()
	}
	faultPoint(ctx)
	if err := CPUSharedEligible(queries); err != nil {
		return nil, SharedStats{}, err
	}
	n := len(queries)
	factName := queries[0].Fact
	fact := db.MustTable(factName)
	rows := fact.Rows()
	runStart := cpu.Cycles()

	// Per-member prep on the shared core: dimension filters, probe-order
	// sort and prebuilt hash tables, all charged exclusively to the member.
	sweeps := make([]*cpuSweep, n)
	joins := make([][]dimJoin, n)
	tables := make([][]joinTable, n)
	prepCycles := make([]map[string]int64, n)
	prepRows := make([]map[string]int64, n)
	buildCycles := make([]int64, n)
	exclusive := make([]int64, n)
	for i, q := range queries {
		sweeps[i] = &cpuSweep{cpu: cpu, acc: newGroupAcc(q.Aggs), resident: true,
			perJoin: make(map[string]int64, len(q.Joins))}
		prepCycles[i] = make(map[string]int64, len(q.Joins))
		prepRows[i] = make(map[string]int64, len(q.Joins))
		joins[i] = make([]dimJoin, 0, len(q.Joins))
		for _, e := range q.Joins {
			if err := ctx.Err(); err != nil {
				return nil, SharedStats{}, err
			}
			before := cpu.Cycles()
			j := cpuPrepareDim(cpu, q, e, db)
			joins[i] = append(joins[i], j)
			prepCycles[i][e.Dim] = cpu.Cycles() - before
			prepRows[i][e.Dim] = int64(len(j.keys))
			exclusive[i] += cpu.Cycles() - before
		}
		sort.SliceStable(joins[i], func(a, b int) bool { return joins[i][a].fraction < joins[i][b].fraction })

		buildStart := cpu.Cycles()
		tables[i] = make([]joinTable, len(joins[i]))
		for ji, j := range joins[i] {
			before := cpu.Cycles()
			tables[i][ji] = buildJoinTable(cpu, j)
			// Builds report inside the member's "join:" rows, like the solo
			// streaming path.
			sweeps[i].perJoin[j.edge.Dim] += cpu.Cycles() - before
		}
		buildCycles[i] = cpu.Cycles() - buildStart
		exclusive[i] += buildCycles[i]
	}

	cols := sharedQueryCols(queries)

	// Fused chunked sweep: stream the union columns once per chunk, then run
	// every member's resident pipeline over the chunk before advancing.
	var sharedCycles int64
	for base := 0; base < rows; base += defaultStreamBatchRows {
		if err := ctx.Err(); err != nil {
			return nil, SharedStats{}, err
		}
		end := base + defaultStreamBatchRows
		if end > rows {
			end = rows
		}
		sharedBefore := cpu.Cycles()
		for range cols {
			cpu.ChargeStream(0, int64(end-base)*4)
		}
		sharedCycles += cpu.Cycles() - sharedBefore

		for i, q := range queries {
			before := cpu.Cycles()
			if err := sweeps[i].run(ctx, q, db, joins[i], tables[i], base, end); err != nil {
				return nil, SharedStats{}, err
			}
			exclusive[i] += cpu.Cycles() - before
		}
	}

	total := cpu.Cycles() - runStart
	var sumExclusive int64
	for _, e := range exclusive {
		sumExclusive += e
	}
	residual := total - sharedCycles - sumExclusive
	share := func(t int64, i int) int64 {
		s := t / int64(n)
		if int64(i) < t%int64(n) {
			s++
		}
		return s
	}

	out := make([]SharedMemberResult, n)
	for i, q := range queries {
		s := sweeps[i]
		if len(q.GroupBy) == 0 && len(s.acc.order) == 0 {
			s.acc.add(nil, make([]int64, len(q.Aggs)), 0)
		}
		res := s.acc.result(q)
		cycles := exclusive[i] + share(sharedCycles, i) + share(residual, i)

		b := &telemetry.Breakdown{Device: "CPU", TotalCycles: cycles}
		var covered int64
		for _, e := range q.Joins {
			cy := prepCycles[i][e.Dim]
			b.Operators = append(b.Operators, telemetry.OperatorStats{
				Operator: "prep:" + e.Dim, Device: "CPU", Cycles: cy, Rows: prepRows[i][e.Dim]})
			covered += cy
		}
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "shared-scan", Device: "CPU", Cycles: share(sharedCycles, i), Rows: int64(rows)})
		covered += share(sharedCycles, i)
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "filter", Device: "CPU", Cycles: s.filterCycles, Rows: int64(rows)})
		covered += s.filterCycles
		for _, e := range q.Joins {
			cy := s.perJoin[e.Dim]
			b.Operators = append(b.Operators, telemetry.OperatorStats{
				Operator: "join:" + e.Dim, Device: "CPU", Cycles: cy, Rows: prepRows[i][e.Dim]})
			covered += cy
		}
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "aggregate", Device: "CPU", Cycles: s.aggCycles, Rows: int64(len(res.Rows))})
		covered += s.aggCycles
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "overhead", Device: "CPU", Cycles: cycles - covered, Rows: -1})

		out[i] = SharedMemberResult{Result: res, Cycles: cycles, Breakdown: b}
	}
	return out, SharedStats{SharedScanCycles: sharedCycles, TotalCycles: total, Members: n}, nil
}
