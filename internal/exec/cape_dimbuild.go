package exec

// cape_dimbuild.go is the CAPE DimBuild kernel: filter one dimension on the
// AP and compact the qualifying keys plus needed attributes into values
// arrays (Figure 4), grouped by attribute tuple for batched probing.

import (
	"cmp"
	"slices"

	"castle/internal/bitvec"
	"castle/internal/cape"
	"castle/internal/plan"
	"castle/internal/stats"
	"castle/internal/storage"
)

// dimSide is a filtered dimension prepared for probing.
type dimSide struct {
	edge plan.JoinEdge
	// keys are the qualifying dimension keys.
	keys []uint32
	// attrs[i] are the attribute tuples aligned with keys (one slice per
	// NeedAttrs entry).
	attrs [][]uint32
	// groups batch keys by attribute tuple so a whole group can probe with
	// one vmks and materialize with one vmerge per attribute.
	groups []attrGroup
	// groupOf maps each key to its group for the one-pass probe kernel.
	groupOf keyGroups
	// totalRows is the dimension's unfiltered cardinality.
	totalRows int
}

type attrGroup struct {
	attrVals []uint32
	keys     []uint32
}

// capePrepareDim filters one dimension on CAPE and compacts the qualifying
// keys plus needed attributes into values arrays (Figure 4), grouped by
// attribute tuple for batched probing. Prep always runs on a run's primary
// engine — it is charged once per run, not per tile.
func capePrepareDim(eng *cape.Engine, cat *stats.Catalog, q *plan.Query, e plan.JoinEdge,
	db *storage.Database) dimSide {

	dim := db.MustTable(e.Dim)
	maxvl := eng.Config().MAXVL
	preds := q.DimPreds[e.Dim]

	d := dimSide{edge: e, totalRows: dim.Rows(), attrs: make([][]uint32, len(e.NeedAttrs))}
	keyData := dim.MustColumn(e.DimKey).Data
	attrData := make([][]uint32, len(e.NeedAttrs))
	for i, a := range e.NeedAttrs {
		attrData[i] = dim.MustColumn(a).Data
	}

	// Unfiltered dimensions need no CAPE pass: the key (and attribute)
	// columns are the values arrays already.
	if len(preds) == 0 {
		d.keys = keyData
		copy(d.attrs, attrData)
		eng.Scalar(8)
		d.buildGroups(e)
		if len(e.NeedAttrs) > 0 {
			eng.Scalar(int64(4 * len(d.keys)))
		}
		return d
	}

	for base := 0; base < dim.Rows(); base += maxvl {
		vl := dim.Rows() - base
		if vl > maxvl {
			vl = maxvl
		}
		eng.SetVL(vl)
		regs := newRegAlloc(eng.Config().NumVRegs)
		var mask *bitvec.Vector
		for _, pr := range preds {
			r, cached := regs.forCol(pr.Column)
			if !cached {
				eng.Load(r, dim.MustColumn(pr.Column).Data[base:base+vl], colWidth(cat, e.Dim, pr.Column))
			}
			m := predMask(eng, r, pr)
			if mask == nil {
				mask = m
			} else {
				mask = eng.MaskAnd(mask, m)
			}
		}
		if mask == nil {
			mask = eng.MaskInit(true)
		}
		// Compact to a values array: matched keys and attributes stream
		// back to memory (Figure 4's "values array").
		n := eng.MPopc(mask)
		eng.Scalar(int64(3 * n))
		eng.ChargeStreamWrite(int64(4 * n * (1 + len(e.NeedAttrs))))
		for i := mask.First(); i != -1; i = mask.NextAfter(i) {
			d.keys = append(d.keys, keyData[base+i])
			for ai := range attrData {
				d.attrs[ai] = append(d.attrs[ai], attrData[ai][base+i])
			}
		}
	}

	// Batch keys by attribute tuple for group-aware probing.
	d.buildGroups(e)
	if len(e.NeedAttrs) > 0 {
		eng.Scalar(int64(4 * len(d.keys)))
	}
	return d
}

// buildGroups batches the filtered keys by attribute tuple and indexes
// each key's group.
func (d *dimSide) buildGroups(e plan.JoinEdge) {
	if len(e.NeedAttrs) == 0 {
		return
	}
	idx := make(map[string]int)
	tuple := make([]uint32, len(e.NeedAttrs))
	var kb []byte
	for r := range d.keys {
		for ai := range tuple {
			tuple[ai] = d.attrs[ai][r]
		}
		kb = appendGroupKey(kb[:0], tuple)
		gi, ok := idx[string(kb)]
		if !ok {
			gi = len(d.groups)
			idx[string(kb)] = gi
			d.groups = append(d.groups, attrGroup{attrVals: slices.Clone(tuple)})
		}
		d.groups[gi].keys = append(d.groups[gi].keys, d.keys[r])
	}
	d.groupOf.build(d.groups)
}

// Dense keyGroups tables span at most denseSpanPerKey entries per key
// plus denseSpanFloor, so one costs a bounded multiple of the values
// array it indexes; wider key spans fall back to binary search.
const (
	denseSpanPerKey = 8
	denseSpanFloor  = 1 << 16
)

// keyGroups maps a qualifying dimension key to its attribute group: the
// lookup side of the one-pass group-aware probe. Lookups return a slot,
// group+1, with 0 for a key that qualifies for no group, and cols[a][s] is
// attribute a of slot s's tuple — zero for slot 0, the value a probed lane
// keeps when nothing merges into it. A key listed in several groups maps
// to the last of them, the group whose vmerge the literal probe loop
// issues last.
type keyGroups struct {
	lo uint32
	// dense[k-lo+1] is key k's slot; dense[0] stays 0 for keys outside
	// the span, so a lookup needs no branch.
	dense  []uint32
	sorted []uint64 // wide spans: key<<32 | slot, ascending, one per key
	cols   [][]uint32
}

func (t *keyGroups) build(groups []attrGroup) {
	if len(groups) == 0 {
		return
	}
	t.cols = make([][]uint32, len(groups[0].attrVals))
	for a := range t.cols {
		t.cols[a] = make([]uint32, len(groups)+1)
	}
	n := 0
	lo, hi := ^uint32(0), uint32(0)
	for gi, g := range groups {
		n += len(g.keys)
		for _, k := range g.keys {
			lo, hi = min(lo, k), max(hi, k)
		}
		for a, v := range g.attrVals {
			t.cols[a][gi+1] = v
		}
	}
	t.lo = lo
	if span := uint64(hi-lo) + 1; span <= uint64(denseSpanPerKey*n+denseSpanFloor) {
		t.dense = make([]uint32, span+1)
		for gi, g := range groups {
			for _, k := range g.keys {
				t.dense[k-lo+1] = uint32(gi + 1)
			}
		}
		return
	}
	t.sorted = make([]uint64, 0, n)
	for gi, g := range groups {
		for _, k := range g.keys {
			t.sorted = append(t.sorted, uint64(k)<<32|uint64(gi+1))
		}
	}
	slices.Sort(t.sorted)
	// Keep each key's last (highest) slot.
	out := t.sorted[:0]
	for i, e := range t.sorted {
		if i+1 == len(t.sorted) || t.sorted[i+1]>>32 != e>>32 {
			out = append(out, e)
		}
	}
	t.sorted = out
}

// slots sets dst[i] to keys[i]'s slot — its group+1, or 0 when the key
// qualifies for no group — reusing dst's storage, and returns dst.
func (t *keyGroups) slots(keys, dst []uint32) []uint32 {
	dst = slices.Grow(dst[:0], len(keys))[:len(keys)]
	if t.dense == nil {
		for i, k := range keys {
			dst[i] = t.sortedSlot(k)
		}
		return dst
	}
	dense, lo := t.dense, t.lo
	for i, k := range keys {
		d := uint64(k-lo) + 1
		if d >= uint64(len(dense)) {
			d = 0
		}
		dst[i] = dense[d]
	}
	return dst
}

func (t *keyGroups) sortedSlot(k uint32) uint32 {
	i, ok := slices.BinarySearchFunc(t.sorted, k, func(e uint64, k uint32) int {
		return cmp.Compare(uint32(e>>32), k)
	})
	if !ok {
		return 0
	}
	return uint32(t.sorted[i])
}
