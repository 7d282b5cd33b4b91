// Package exec contains Castle's physical execution engines: the CAPE
// executor (associative selection, Algorithm 1 joins, Algorithm 2
// aggregation, with operator fusion and the ADL/MKS/ABA fast paths), the
// baseline AVX-512 CPU executor (pipelined left-deep hash joins), and a
// naive row-at-a-time reference engine used to cross-check both.
package exec

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"castle/internal/plan"
	"castle/internal/storage"
)

// Row is one group of a query result: the group-key values (encoded) and
// one aggregate value per aggregate expression.
type Row struct {
	Keys []uint32
	Aggs []int64
}

// Result is a query result relation.
type Result struct {
	GroupBy  []plan.ColRef
	AggExprs []plan.AggExpr
	Rows     []Row
}

// Normalize sorts rows by group key so results from different engines
// compare deterministically (the paper omits the final ORDER BY; sorting
// here is only for comparison).
func (r *Result) Normalize() {
	sort.Slice(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i].Keys, r.Rows[j].Keys
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// Equal reports whether two normalized results are identical.
func (r *Result) Equal(o *Result) bool {
	if len(r.Rows) != len(o.Rows) {
		return false
	}
	for i := range r.Rows {
		a, b := r.Rows[i], o.Rows[i]
		if len(a.Keys) != len(b.Keys) || len(a.Aggs) != len(b.Aggs) {
			return false
		}
		for k := range a.Keys {
			if a.Keys[k] != b.Keys[k] {
				return false
			}
		}
		for k := range a.Aggs {
			if a.Aggs[k] != b.Aggs[k] {
				return false
			}
		}
	}
	return true
}

// Format renders the result with dictionary-encoded keys decoded.
func (r *Result) Format(db *storage.Database) string {
	var b strings.Builder
	for _, g := range r.GroupBy {
		fmt.Fprintf(&b, "%-24s", g.String())
	}
	for _, a := range r.AggExprs {
		fmt.Fprintf(&b, "%20s", a.String())
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		for i, g := range r.GroupBy {
			col := db.MustTable(g.Table).MustColumn(g.Column)
			if col.Dict != nil {
				fmt.Fprintf(&b, "%-24s", col.Dict.Decode(row.Keys[i]))
			} else {
				fmt.Fprintf(&b, "%-24d", row.Keys[i])
			}
		}
		for _, v := range row.Aggs {
			fmt.Fprintf(&b, "%20d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// groupAcc accumulates per-group aggregate values across partitions and
// engines. Partial values merge per aggregate kind: sums, counts and
// averages (sum side) add; MIN/MAX take the extremum. Row counts are
// tracked for AVG's final division.
type groupAcc struct {
	aggs  []plan.AggExpr
	order []string
	rows  map[string]*accRow
	kb    []byte // group-key scratch: lookups of existing groups allocate nothing
}

type accRow struct {
	keys  []uint32
	vals  []int64
	count int64
	// sets holds the value sets of COUNT(DISTINCT) slots (nil elsewhere).
	sets []map[uint32]struct{}
}

func newGroupAcc(aggs []plan.AggExpr) *groupAcc {
	return &groupAcc{aggs: aggs, rows: make(map[string]*accRow)}
}

// appendGroupKey appends the map key of a group-key tuple to b: four
// little-endian bytes per key. Keys are fixed width, so distinct tuples of
// one arity never collide; the bytes only ever serve as map keys (result
// row order comes from insertion order and Normalize, never from them).
func appendGroupKey(b []byte, keys []uint32) []byte {
	for _, k := range keys {
		b = binary.LittleEndian.AppendUint32(b, k)
	}
	return b
}

// lookup returns the accumulator row of keys, creating it on first sight.
func (g *groupAcc) lookup(keys []uint32) *accRow {
	g.kb = appendGroupKey(g.kb[:0], keys)
	if r, ok := g.rows[string(g.kb)]; ok {
		return r
	}
	ks := string(g.kb)
	r := &accRow{keys: append([]uint32(nil), keys...), vals: make([]int64, len(g.aggs))}
	g.rows[ks] = r
	g.order = append(g.order, ks)
	return r
}

// add merges partial aggregate values for a group key. vals[i] is the
// partial result of aggs[i] over rows source rows (the raw value for a
// single row, or a per-partition partial). Calls with rows == 0 only
// materialize the group (used for the grand-aggregate zero row).
func (g *groupAcc) add(keys []uint32, vals []int64, rows int64) {
	r, first := g.row(keys, rows)
	if rows == 0 || r == nil {
		return
	}
	for i, v := range vals {
		switch g.aggs[i].Kind {
		case plan.AggMin:
			if first || v < r.vals[i] {
				r.vals[i] = v
			}
		case plan.AggMax:
			if first || v > r.vals[i] {
				r.vals[i] = v
			}
		case plan.AggCountDistinct:
			// Merged through addDistinct; the scalar slot is derived at
			// result time.
		default: // sums, counts, averages (sum side)
			r.vals[i] += v
		}
	}
}

// row fetches or creates the accumulator row; the bool reports whether
// this call contributes the row's first source rows (so MIN/MAX initialize
// rather than compare). Returns nil when rows == 0 (the row is still
// materialized, for the grand-aggregate zero row).
func (g *groupAcc) row(keys []uint32, rows int64) (*accRow, bool) {
	r := g.lookup(keys)
	if rows == 0 {
		return nil, false
	}
	first := r.count == 0
	r.count += rows
	return r, first
}

// addDistinct merges raw values into a COUNT(DISTINCT) slot's set. Call it
// alongside add (in either order) with the same group key.
func (g *groupAcc) addDistinct(keys []uint32, slot int, values []uint32) {
	r := g.lookup(keys)
	if r.sets == nil {
		r.sets = make([]map[uint32]struct{}, len(g.aggs))
	}
	if r.sets[slot] == nil {
		r.sets[slot] = make(map[uint32]struct{}, len(values))
	}
	for _, v := range values {
		r.sets[slot][v] = struct{}{}
	}
}

// merge folds a partial accumulator (one tile's or one core's share of a
// parallel sweep) into g by replaying each partial row through add and
// addDistinct. Sums, counts and extrema are associative and commutative,
// and result() normalizes row order, so the merged result is bit-identical
// to a serial run regardless of how the rows were partitioned — callers
// still merge partials in fixed tile order so the accumulator's internal
// insertion order is deterministic too.
func (g *groupAcc) merge(o *groupAcc) {
	for _, ks := range o.order {
		r := o.rows[ks]
		g.add(r.keys, r.vals, r.count)
		if r.sets == nil {
			continue
		}
		for slot, set := range r.sets {
			if set == nil {
				continue
			}
			values := make([]uint32, 0, len(set))
			for v := range set {
				values = append(values, v)
			}
			g.addDistinct(r.keys, slot, values)
		}
	}
}

// result materializes the accumulated groups, resolves AVG's final
// division (integer floor; zero when no rows contributed), normalizes the
// rows, and applies the query's ORDER BY (a stable re-sort on top of the
// normalized order, so ties remain deterministic across engines).
func (g *groupAcc) result(q *plan.Query) *Result {
	res := &Result{GroupBy: q.GroupBy, AggExprs: q.Aggs}
	for _, ks := range g.order {
		r := g.rows[ks]
		row := Row{Keys: r.keys, Aggs: append([]int64(nil), r.vals...)}
		for i, a := range q.Aggs {
			switch a.Kind {
			case plan.AggAvg:
				if r.count > 0 {
					row.Aggs[i] = floorDiv(r.vals[i], r.count)
				} else {
					row.Aggs[i] = 0
				}
			case plan.AggCountDistinct:
				if r.sets != nil && r.sets[i] != nil {
					row.Aggs[i] = int64(len(r.sets[i]))
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	res.Normalize()
	res.ApplyOrder(q.OrderBy)
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res
}

// floorDiv divides toward negative infinity (AVG over subtraction results
// can be negative).
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// ApplyOrder stably sorts rows by the ORDER BY terms.
func (r *Result) ApplyOrder(terms []plan.OrderTerm) {
	if len(terms) == 0 {
		return
	}
	sort.SliceStable(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		for _, t := range terms {
			var cmp int
			if t.KeyIdx >= 0 {
				ka, kb := a.Keys[t.KeyIdx], b.Keys[t.KeyIdx]
				switch {
				case ka < kb:
					cmp = -1
				case ka > kb:
					cmp = 1
				}
			} else {
				va, vb := a.Aggs[t.AggIdx], b.Aggs[t.AggIdx]
				switch {
				case va < vb:
					cmp = -1
				case va > vb:
					cmp = 1
				}
			}
			if t.Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
}
