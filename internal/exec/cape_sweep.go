package exec

// cape_sweep.go drives the fused CAPE fact stage over one partition: Scan
// (CSB loads) -> Filter -> JoinProbe per edge -> Aggregate. tileSweep is the
// per-engine kernel context; the serial path runs one over the executor's
// engine, the parallel path one per forked tile, and exec.Placed reuses the
// filter/join half when the aggregation tail is placed on the CPU.

import (
	"context"
	"fmt"

	"castle/internal/bitvec"
	"castle/internal/cape"
	"castle/internal/plan"
	"castle/internal/stats"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// regAlloc hands out CSB vector registers.
type regAlloc struct {
	next  int
	max   int
	byCol map[string]cape.VReg
}

func newRegAlloc(n int) *regAlloc {
	return &regAlloc{max: n, byCol: make(map[string]cape.VReg)}
}

func (r *regAlloc) fresh() cape.VReg {
	if r.next >= r.max {
		panic(fmt.Sprintf("exec: out of CSB vector registers (%d)", r.max))
	}
	v := cape.VReg(r.next)
	r.next++
	return v
}

func (r *regAlloc) forCol(name string) (cape.VReg, bool) {
	if v, ok := r.byCol[name]; ok {
		return v, true
	}
	v := r.fresh()
	r.byCol[name] = v
	return v, false
}

// tileSweep is one engine's share of the fact sweep and its accounting: the
// serial path runs a single sweep over the executor's own engine; the
// parallel path runs one per forked tile, each on its own goroutine. A
// sweep only reads shared state (catalog, options, storage, prepared
// dimensions) and writes its own fields, which is what makes the fan-out
// race-free.
type tileSweep struct {
	cat  *stats.Catalog
	opts CastleOptions
	eng  *cape.Engine
	acc  *groupAcc

	perJoin      map[string]int64
	filterCycles int64
	aggCycles    int64

	groups groupScratch // bulkGroupLoop's reusable host state
	slots  []uint32     // probeGroups' per-lane slots, reused

	// span hosts the per-operator child spans: the "fact-sweep" span when
	// serial, this tile's "tileN" span when parallel.
	span *telemetry.Span
}

// runPartition executes the fused operator pipeline over one fact
// partition: selections -> joins (right-deep then left-deep segments) ->
// aggregation (Algorithm 2). Cancellation is checked at every operator
// boundary within the partition.
func (s *tileSweep) runPartition(ctx context.Context, p *plan.Physical, db *storage.Database,
	dims []dimSide, base, vl int, needGPArith, camCapable bool) error {

	faultPoint(ctx)
	rowMask, regs, attrRegs, loadFactCol, err := s.runFilterJoins(ctx, p, db, dims, base, vl)
	if err != nil {
		return err
	}
	return s.runAggregate(ctx, p, db, base, vl, rowMask, regs, attrRegs, loadFactCol,
		needGPArith, camCapable)
}

// runFilterJoins executes the partition's Scan+Filter+JoinProbe operators
// (the fused fact stage up to, but not including, aggregation) and returns
// the surviving row mask plus the register state the aggregation tail needs:
// the allocator, the materialized dimension-attribute vectors, and the
// memoising fact-column loader.
func (s *tileSweep) runFilterJoins(ctx context.Context, p *plan.Physical, db *storage.Database,
	dims []dimSide, base, vl int) (*bitvec.Vector, *regAlloc, map[string]cape.VReg, func(string) cape.VReg, error) {

	q := p.Query
	eng := s.eng
	fact := db.MustTable(q.Fact)
	eng.SetVL(vl)

	regs := newRegAlloc(eng.Config().NumVRegs)
	loadFactCol := func(name string) cape.VReg {
		r, cached := regs.forCol(name)
		if !cached {
			col := fact.MustColumn(name)
			eng.Load(r, col.Data[base:base+vl], colWidth(s.cat, q.Fact, name))
		}
		return r
	}
	rowMask, attrRegs, err := s.runFilterJoinsWith(ctx, p, db, dims, base, vl, regs, loadFactCol)
	return rowMask, regs, attrRegs, loadFactCol, err
}

// runFilterJoinsWith is runFilterJoins over caller-supplied register state:
// the shared fused sweep (shared_cape.go) preloads the member union of fact
// columns into one allocator and runs each member's filter+join pipeline
// against it, so every column is loaded once per morsel regardless of how
// many member queries read it. The caller is responsible for eng.SetVL.
func (s *tileSweep) runFilterJoinsWith(ctx context.Context, p *plan.Physical, db *storage.Database,
	dims []dimSide, base, vl int, regs *regAlloc,
	loadFactCol func(string) cape.VReg) (*bitvec.Vector, map[string]cape.VReg, error) {

	q := p.Query
	eng := s.eng
	fact := db.MustTable(q.Fact)

	// --- Selections (Figure 4): per-predicate masks combined with mask ops.
	spf := s.span.Child("filter")
	before := eng.TotalCycles()
	eng.Scalar(8) // loop setup
	var rowMask *bitvec.Vector
	for _, pr := range q.FactPreds {
		m := predMask(eng, loadFactCol(pr.Column), pr)
		if rowMask == nil {
			rowMask = m
		} else {
			rowMask = eng.MaskAnd(rowMask, m)
		}
	}
	if rowMask == nil {
		rowMask = eng.MaskInit(true)
	}
	cy := eng.TotalCycles() - before
	s.filterCycles += cy
	spf.SetInt("cycles", cy)
	spf.SetInt("rows", int64(vl))
	spf.End()

	// --- Right-deep joins: filtered dimensions probe the resident fact
	// partition (Algorithm 1 with the probe side swapped, §3.2).
	attrRegs := make(map[string]cape.VReg) // "dim.attr" -> fact-aligned vector
	for di := 0; di < p.Switch; di++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		d := dims[di]
		spj := s.span.Child("join:" + d.edge.Dim)
		before := eng.TotalCycles()
		fkReg := loadFactCol(d.edge.FactFK)
		joinMask := s.probeFactWithDim(fkReg, d, regs, attrRegs)
		rowMask = eng.MaskAnd(rowMask, joinMask)
		cy := eng.TotalCycles() - before
		s.perJoin[d.edge.Dim] += cy
		spj.SetInt("cycles", cy)
		spj.SetInt("probe_keys", int64(len(d.keys)))
		spj.End()
	}

	// --- Left-deep segment: surviving intermediate rows probe
	// CSB-resident dimension partitions.
	for di := p.Switch; di < len(p.Joins); di++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		d := dims[di]
		spj := s.span.Child("join:" + d.edge.Dim)
		before := eng.TotalCycles()
		loadFactCol(d.edge.FactFK) // FK column resident for the CP to read
		rowMask = s.probeDimWithRows(fact, d, base, vl, rowMask, regs, attrRegs)
		cy := eng.TotalCycles() - before
		s.perJoin[d.edge.Dim] += cy
		spj.SetInt("cycles", cy)
		spj.SetInt("dim_rows", int64(len(d.keys)))
		spj.End()
	}
	return rowMask, attrRegs, nil
}

// runAggregate executes the partition's Aggregate operator (Algorithm 2),
// fused on the row mask runFilterJoins produced.
func (s *tileSweep) runAggregate(ctx context.Context, p *plan.Physical, db *storage.Database,
	base, vl int, rowMask *bitvec.Vector, regs *regAlloc, attrRegs map[string]cape.VReg,
	loadFactCol func(string) cape.VReg, needGPArith, camCapable bool) error {

	if err := ctx.Err(); err != nil {
		return err
	}
	q := p.Query
	eng := s.eng
	fact := db.MustTable(q.Fact)
	spa := s.span.Child("aggregate")
	before := eng.TotalCycles()
	if needGPArith && camCapable {
		// Bit-serial vv arithmetic requires the bitsliced layout: switch,
		// carry the row mask across with vrelayout, and reload the
		// aggregate input columns in GP layout (§5.2).
		eng.SetLayout(cape.GPMode)
		rowMask = eng.Relayout(rowMask)
		regs = newRegAlloc(eng.Config().NumVRegs)
		if len(q.GroupBy) > 0 {
			panic("exec: GROUP BY with vv-arithmetic aggregates is outside SSB's shape")
		}
	}

	if len(q.GroupBy) == 0 {
		s.aggregateScalar(q, fact, base, vl, rowMask, regs)
	} else {
		s.aggregateGroups(q, fact, base, vl, rowMask, regs, attrRegs, loadFactCol)
	}
	cy := eng.TotalCycles() - before
	s.aggCycles += cy
	spa.SetInt("cycles", cy)
	spa.End()
	return nil
}

// chargeFissionOverhead models disabling operator fusion (§7.4): each
// operator boundary materializes its output mask through main memory once
// per partition instead of keeping it resident in the CSB. parts is the
// number of partitions this sweep executed (a tile charges only its own
// share).
func (s *tileSweep) chargeFissionOverhead(p *plan.Physical, parts, maxvl int) {
	eng := s.eng
	boundaries := 1 + len(p.Joins) // selections | joins... | aggregation
	maskBytes := int64((maxvl + 7) / 8)
	for i := 0; i < parts*boundaries; i++ {
		eng.ChargeStreamWrite(maskBytes)
		eng.ChargeStreamRead(maskBytes)
		eng.Scalar(40) // per-sweep loop re-setup
	}
}
