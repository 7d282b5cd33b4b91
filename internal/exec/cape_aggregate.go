package exec

// cape_aggregate.go holds the CAPE Aggregate kernels: Algorithm 2's
// per-group search loop (generalised to composite keys) with its one-pass
// bulk twin, the scalar no-GROUP-BY reductions, and the COUNT(DISTINCT)
// nested loop.

import (
	"encoding/binary"
	"math/bits"
	"sort"

	"castle/internal/bitvec"
	"castle/internal/cape"
	"castle/internal/isa"
	"castle/internal/plan"
	"castle/internal/storage"
)

// chargeDistinctLoop bills the nested Algorithm-2-style loop that counts a
// column's distinct values under a mask on the AP: per distinct value one
// vfirst, one vextract, one search, and one mask XOR retire the value's
// rows (plus loop scalars); one final vfirst finds the exhausted mask.
func (s *tileSweep) chargeDistinctLoop(distinct int64, width int) {
	eng := s.eng
	eng.Charge(isa.OpVMFirst, 32, distinct+1)
	eng.Charge(isa.OpVExtract, 32, distinct)
	eng.Charge(isa.OpVMSeqVX, width, distinct)
	eng.Charge(isa.OpVMXor, 32, distinct)
	eng.Scalar(6 * distinct)
}

// distinctUnder gathers the distinct values of a fact column among the
// masked rows of the current partition (the functional result of the
// charged loop above). The result is sorted ascending: a canonical order
// that does not depend on row order within the partition, so repeated runs
// and different partitionings hand identical value lists downstream.
func distinctUnder(col []uint32, base int, mask *bitvec.Vector) []uint32 {
	seen := make(map[uint32]struct{})
	out := make([]uint32, 0, 16)
	for i := mask.First(); i != -1; i = mask.NextAfter(i) {
		v := col[base+i]
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// aggregateScalar handles queries without GROUP BY: per-partition partial
// reductions merge into the CP-side accumulator.
func (s *tileSweep) aggregateScalar(q *plan.Query, fact *storage.Table, base, vl int,
	rowMask *bitvec.Vector, regs *regAlloc) {

	eng := s.eng
	acc := s.acc
	rows := int64(eng.MPopc(rowMask))
	if rows == 0 {
		return
	}
	loadCol := func(name string) cape.VReg {
		r, cached := regs.forCol(name)
		if !cached {
			eng.Load(r, fact.MustColumn(name).Data[base:base+vl], colWidth(s.cat, q.Fact, name))
		}
		return r
	}
	vals := make([]int64, len(q.Aggs))
	for i, a := range q.Aggs {
		switch a.Kind {
		case plan.AggSumCol, plan.AggAvg:
			vals[i] = eng.RedSum(loadCol(a.A), rowMask)
		case plan.AggSumMul:
			ra, rb := loadCol(a.A), loadCol(a.B)
			tmp := regs.fresh()
			eng.MulVV(tmp, ra, rb)
			vals[i] = eng.RedSum(tmp, rowMask)
		case plan.AggSumSub:
			// sum(a-b) = sum(a) - sum(b): two predicated reductions and a
			// scalar subtract, avoiding bit-serial vv subtraction.
			vals[i] = eng.RedSum(loadCol(a.A), rowMask) - eng.RedSum(loadCol(a.B), rowMask)
			eng.Scalar(1)
		case plan.AggCount:
			vals[i] = rows
		case plan.AggMin:
			v, _ := eng.RedMin(loadCol(a.A), rowMask)
			vals[i] = int64(v)
		case plan.AggMax:
			v, _ := eng.RedMax(loadCol(a.A), rowMask)
			vals[i] = int64(v)
		case plan.AggCountDistinct:
			r := loadCol(a.A)
			values := distinctUnder(fact.MustColumn(a.A).Data, base, rowMask)
			s.chargeDistinctLoop(int64(len(values)), eng.RegWidth(r))
			acc.addDistinct(nil, i, values)
		}
		eng.Scalar(4)
	}
	acc.add(nil, vals, rows)
}

// aggregateGroups resolves Algorithm 2's operand registers for one fact
// partition — group columns from the fact or from joined attribute
// vectors, aggregate inputs from the fact — and runs the group loop.
func (s *tileSweep) aggregateGroups(q *plan.Query, fact *storage.Table, base, vl int,
	rowMask *bitvec.Vector, regs *regAlloc, attrRegs map[string]cape.VReg,
	loadFactCol func(string) cape.VReg) {

	groupRegs := make([]cape.VReg, len(q.GroupBy))
	for i, g := range q.GroupBy {
		if g.Table == q.Fact {
			groupRegs[i] = loadFactCol(g.Column)
			continue
		}
		r, ok := attrRegs[g.Table+"."+g.Column]
		if !ok {
			panic("exec: group-by attribute " + g.String() + " was not materialized by any join")
		}
		groupRegs[i] = r
	}
	aggRegs := make([][2]cape.VReg, len(q.Aggs))
	distinct := make([][]uint32, len(q.Aggs))
	for i, a := range q.Aggs {
		if a.Kind != plan.AggCount {
			aggRegs[i][0] = loadFactCol(a.A)
		}
		if a.Kind == plan.AggSumMul || a.Kind == plan.AggSumSub {
			aggRegs[i][1] = loadFactCol(a.B)
		}
		if a.Kind == plan.AggCountDistinct {
			distinct[i] = fact.MustColumn(a.A).Data[base : base+vl]
		}
	}
	s.groupLoop(q, groupRegs, aggRegs, distinct, rowMask, regs)
}

// groupLoop is Algorithm 2 generalised to composite group keys, over
// resident registers: groupRegs hold the group columns, aggRegs each
// aggregate's operands, and distinct[i] the lane-aligned values of a
// COUNT(DISTINCT) slot. The fact sweep and the CAPE aggregation tail of a
// mixed placement both run it. Every shape but COUNT(DISTINCT) and
// SUM(a*b) runs the one-pass bulkGroupLoop; the literal loop is its test
// oracle (CastleOptions.NoBulkAggFastPath) and handles those two shapes.
func (s *tileSweep) groupLoop(q *plan.Query, groupRegs []cape.VReg, aggRegs [][2]cape.VReg,
	distinct [][]uint32, rowMask *bitvec.Vector, regs *regAlloc) {

	bulk := !s.opts.NoBulkAggFastPath
	for _, a := range q.Aggs {
		if a.Kind == plan.AggSumMul || a.Kind == plan.AggCountDistinct {
			bulk = false
		}
	}
	if bulk {
		s.bulkGroupLoop(q, groupRegs, aggRegs, rowMask)
		return
	}
	s.literalGroupLoop(q, groupRegs, aggRegs, distinct, rowMask, regs)
}

// literalGroupLoop is Algorithm 2 as the AP executes it: the first
// unprocessed row identifies a group; one search per group column (ANDed)
// recovers all of the group's rows; predicated reductions compute the
// aggregates; XOR retires the group.
func (s *tileSweep) literalGroupLoop(q *plan.Query, groupRegs []cape.VReg, aggRegs [][2]cape.VReg,
	distinct [][]uint32, rowMask *bitvec.Vector, regs *regAlloc) {

	eng := s.eng
	acc := s.acc
	remaining := rowMask
	keys := make([]uint32, len(groupRegs))
	aggs := make([]int64, len(q.Aggs))
	for {
		idx := eng.MFirst(remaining)
		if idx == -1 {
			break
		}
		groupMask := remaining
		for i, r := range groupRegs {
			keys[i] = eng.Extract(r, idx)
			groupMask = eng.MaskAnd(groupMask, eng.Search(r, keys[i]))
		}
		groupRows := int64(eng.MPopc(groupMask))
		for i, a := range q.Aggs {
			switch a.Kind {
			case plan.AggSumCol, plan.AggAvg:
				aggs[i] = eng.RedSum(aggRegs[i][0], groupMask)
			case plan.AggSumSub:
				aggs[i] = eng.RedSum(aggRegs[i][0], groupMask) - eng.RedSum(aggRegs[i][1], groupMask)
				eng.Scalar(1)
			case plan.AggSumMul:
				tmp := regs.fresh()
				eng.MulVV(tmp, aggRegs[i][0], aggRegs[i][1])
				aggs[i] = eng.RedSum(tmp, groupMask)
			case plan.AggCount:
				aggs[i] = groupRows
			case plan.AggMin:
				v, _ := eng.RedMin(aggRegs[i][0], groupMask)
				aggs[i] = int64(v)
			case plan.AggMax:
				v, _ := eng.RedMax(aggRegs[i][0], groupMask)
				aggs[i] = int64(v)
			case plan.AggCountDistinct:
				values := distinctUnder(distinct[i], 0, groupMask)
				s.chargeDistinctLoop(int64(len(values)), eng.RegWidth(aggRegs[i][0]))
				acc.addDistinct(keys, i, values)
				aggs[i] = 0
			}
		}
		acc.add(keys, aggs, groupRows)
		eng.Scalar(mergeScalarsPerRow) // CP-side result append/merge instructions
		// Merging into the CP-side result table is data-dependent: its
		// working set is the accumulated group set.
		eng.CPAccess(1, int64(len(acc.order))*16)
		remaining = eng.MaskXor(remaining, groupMask)
	}
}

// denseGroupCodes bounds the group-code span bulkGroupLoop indexes with a
// flat table; wider spans hash the key tuples' bytes.
const denseGroupCodes = 1 << 16

// groupScratch is bulkGroupLoop's host state, reused across the
// partitions one tileSweep aggregates.
type groupScratch struct {
	lo, stride []uint64
	cols       [][]uint32
	ops        [][2][]uint32
	dense      []int32  // group code -> group+1; all zero between calls
	codes      []uint64 // the codes dense holds, for clearing
	tuples     map[string]int32
	kb         []byte
	keys       []uint32 // group g's key tuple: keys[g*ncols : (g+1)*ncols]
	vals       []int64  // group g's aggregates: vals[g*naggs : (g+1)*naggs]
	rows       []int64
}

// bulkGroupLoop computes literalGroupLoop's groups in one pass over the
// partition's masked lanes and bills the exact instruction stream the
// literal loop issues for them: per group a vfirst, per group column an
// extract, a search and a mask AND, a vcpop, the predicated reductions,
// the scalars, the CP-side merge, and the retiring mask XOR; plus the last
// vfirst that finds the mask empty. Groups come out in the literal loop's
// order, that of their first rows.
func (s *tileSweep) bulkGroupLoop(q *plan.Query, groupRegs []cape.VReg, aggRegs [][2]cape.VReg,
	rowMask *bitvec.Vector) {

	eng := s.eng
	sc := &s.groups
	naggs := len(q.Aggs)
	sc.cols = sc.cols[:0]
	for _, r := range groupRegs {
		sc.cols = append(sc.cols, eng.View(r))
	}
	sc.ops = sc.ops[:0]
	for i, a := range q.Aggs {
		var op [2][]uint32
		if a.Kind != plan.AggCount {
			op[0] = eng.View(aggRegs[i][0])
		}
		if a.Kind == plan.AggSumSub {
			op[1] = eng.View(aggRegs[i][1])
		}
		sc.ops = append(sc.ops, op)
	}

	// A group's code is its key tuple in mixed radix over the masked
	// lanes' per-column value spans, a flat table index when the spans'
	// product is small; past that, groups hash the tuple's bytes.
	nw := (rowMask.Len() + 63) / 64
	sc.lo, sc.stride = sc.lo[:0], sc.stride[:0]
	span, overflow := uint64(1), false
	for _, col := range sc.cols {
		lo, hi := ^uint32(0), uint32(0)
		for wi := 0; wi < nw; wi++ {
			for w := rowMask.Word(wi); w != 0; w &= w - 1 {
				x := col[wi<<6|bits.TrailingZeros64(w)]
				lo, hi = min(lo, x), max(hi, x)
			}
		}
		if lo > hi { // no masked lanes
			lo = hi
		}
		sc.lo = append(sc.lo, uint64(lo))
		sc.stride = append(sc.stride, span)
		var carry uint64
		carry, span = bits.Mul64(span, uint64(hi-lo)+1)
		overflow = overflow || carry != 0
	}
	dense := !overflow && span <= denseGroupCodes
	if dense && len(sc.dense) < int(span) {
		sc.dense = make([]int32, span)
	}
	if !dense && sc.tuples == nil {
		sc.tuples = make(map[string]int32)
	}

	sc.keys, sc.vals, sc.rows, sc.codes = sc.keys[:0], sc.vals[:0], sc.rows[:0], sc.codes[:0]
	newGroup := func(i int) int32 {
		for _, col := range sc.cols {
			sc.keys = append(sc.keys, col[i])
		}
		for ai, a := range q.Aggs {
			var v int64
			if a.Kind == plan.AggMin || a.Kind == plan.AggMax {
				v = int64(sc.ops[ai][0][i])
			}
			sc.vals = append(sc.vals, v)
		}
		sc.rows = append(sc.rows, 0)
		return int32(len(sc.rows) - 1)
	}
	for wi := 0; wi < nw; wi++ {
		for w := rowMask.Word(wi); w != 0; w &= w - 1 {
			i := wi<<6 | bits.TrailingZeros64(w)
			var g int32
			if dense {
				var code uint64
				for c, col := range sc.cols {
					code += (uint64(col[i]) - sc.lo[c]) * sc.stride[c]
				}
				if sc.dense[code] == 0 {
					sc.dense[code] = newGroup(i) + 1
					sc.codes = append(sc.codes, code)
				}
				g = sc.dense[code] - 1
			} else {
				sc.kb = sc.kb[:0]
				for _, col := range sc.cols {
					sc.kb = binary.LittleEndian.AppendUint32(sc.kb, col[i])
				}
				var ok bool
				if g, ok = sc.tuples[string(sc.kb)]; !ok {
					g = newGroup(i)
					sc.tuples[string(sc.kb)] = g
				}
			}
			sc.rows[g]++
			vals := sc.vals[int(g)*naggs : int(g+1)*naggs]
			for ai, a := range q.Aggs {
				switch a.Kind {
				case plan.AggSumCol, plan.AggAvg:
					vals[ai] += int64(sc.ops[ai][0][i])
				case plan.AggSumSub:
					vals[ai] += int64(sc.ops[ai][0][i]) - int64(sc.ops[ai][1][i])
				case plan.AggCount:
					vals[ai]++
				case plan.AggMin:
					vals[ai] = min(vals[ai], int64(sc.ops[ai][0][i]))
				case plan.AggMax:
					vals[ai] = max(vals[ai], int64(sc.ops[ai][0][i]))
				}
			}
		}
	}
	for _, code := range sc.codes {
		sc.dense[code] = 0
	}
	clear(sc.tuples)

	// Bill the instruction stream the literal loop issues. Widths are
	// read only when a group exists: an empty mask issues no search or
	// reduction, so it triggers no ABA width discovery either.
	n := int64(len(sc.rows))
	eng.Charge(isa.OpVMFirst, 32, n+1) // one extra probe finds the empty mask
	if n == 0 {
		return
	}
	for _, r := range groupRegs {
		gw := 32
		if eng.Layout() == cape.GPMode {
			// GP-mode searches are bit-serial at the register's ABA
			// width; CAM-mode searches cost 3 cycles regardless, with no
			// width discovery.
			gw = eng.RegWidth(r)
		}
		eng.Charge(isa.OpVExtract, 32, n)
		eng.Charge(isa.OpVMSeqVX, gw, n)
		eng.Charge(isa.OpVMAnd, 32, n)
	}
	eng.Charge(isa.OpVMPopc, 32, n) // per-group row count
	for ai, a := range q.Aggs {
		switch a.Kind {
		case plan.AggSumCol, plan.AggAvg:
			eng.Charge(isa.OpVRedSum, eng.RegWidth(aggRegs[ai][0]), n)
		case plan.AggSumSub:
			eng.Charge(isa.OpVRedSum, eng.RegWidth(aggRegs[ai][0]), n)
			eng.Charge(isa.OpVRedSum, eng.RegWidth(aggRegs[ai][1]), n)
			eng.ScalarRepeat(1, n)
		case plan.AggMin:
			eng.Charge(isa.OpVRedMin, eng.RegWidth(aggRegs[ai][0]), n)
		case plan.AggMax:
			eng.Charge(isa.OpVRedMax, eng.RegWidth(aggRegs[ai][0]), n)
		}
	}
	eng.ScalarRepeat(mergeScalarsPerRow, n)
	eng.Charge(isa.OpVMXor, 32, n)

	acc := s.acc
	ncols := len(groupRegs)
	for g := range sc.rows {
		acc.add(sc.keys[g*ncols:(g+1)*ncols], sc.vals[g*naggs:(g+1)*naggs], sc.rows[g])
		eng.CPAccess(1, int64(len(acc.order))*16)
	}
}
