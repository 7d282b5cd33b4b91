package exec

// cpu_dimbuild.go is the CPU DimBuild kernel: branchless SIMD selection
// scans over one dimension plus key/attribute-value collection, feeding
// either inline hash-table builds (serial sweeps) or the prebuilt read-only
// tables the parallel probe pass shares.

import (
	"castle/internal/baseline"
	"castle/internal/bitvec"
	"castle/internal/plan"
	"castle/internal/storage"
)

// dimJoin is a filtered dimension prepared for the probe pass: qualifying
// keys, the attribute values aligned with them (one slice per NeedAttrs
// entry), and the survival fraction that orders the pipeline.
type dimJoin struct {
	edge     plan.JoinEdge
	keys     []uint32
	vals     [][]uint32
	fraction float64
}

// joinTable holds the hash tables of one join edge: the semi-join table,
// or one map table per needed attribute. A serial sweep builds each on
// first use; fanned-out runs prebuild them on the primary core, after which
// they are read-only and forked cores probe them concurrently.
type joinTable struct {
	semi *baseline.HashTable
	attr []*baseline.HashTable
}

// built reports whether the edge's tables exist yet.
func (t joinTable) built() bool { return t.semi != nil || t.attr != nil }

// buildJoinTable builds one join edge's hash tables on cpu, charging the
// builds to it.
func buildJoinTable(cpu *baseline.CPU, j dimJoin) joinTable {
	if len(j.edge.NeedAttrs) == 0 {
		return joinTable{semi: cpu.BuildHashSemi(j.keys)}
	}
	t := joinTable{attr: make([]*baseline.HashTable, len(j.edge.NeedAttrs))}
	for ai := range j.edge.NeedAttrs {
		t.attr[ai] = cpu.BuildHashMap(j.keys, j.vals[ai])
	}
	return t
}

// cpuPrepareDim filters one dimension on a core: selection scans carry the
// cycle cost, key and attribute-value collection is functional only. Prep
// always runs on a run's primary core — it is charged once per run, not
// per forked core.
func cpuPrepareDim(cpu *baseline.CPU, q *plan.Query, e plan.JoinEdge, db *storage.Database) dimJoin {
	dim := db.MustTable(e.Dim)
	preds := q.DimPreds[e.Dim]

	var dimMask *bitvec.Vector
	for _, pr := range preds {
		col := dim.MustColumn(pr.Column)
		pr := pr
		m := cpu.SelectionScan(col.Data, func(v uint32) bool { return pr.Matches(v) })
		if dimMask == nil {
			dimMask = m
		} else {
			dimMask.And(m)
			cpu.ChargeCompute(float64(dim.Rows()) / 64)
		}
	}

	keyCol := dim.MustColumn(e.DimKey).Data
	attrData := make([][]uint32, len(e.NeedAttrs))
	for ai, a := range e.NeedAttrs {
		attrData[ai] = dim.MustColumn(a).Data
	}
	j := dimJoin{edge: e, vals: make([][]uint32, len(e.NeedAttrs))}
	collect := func(i int) {
		j.keys = append(j.keys, keyCol[i])
		for ai := range attrData {
			j.vals[ai] = append(j.vals[ai], attrData[ai][i])
		}
	}
	if dimMask == nil {
		for i := range keyCol {
			collect(i)
		}
	} else {
		for i := dimMask.First(); i != -1; i = dimMask.NextAfter(i) {
			collect(i)
		}
	}
	j.fraction = 1.0
	if dim.Rows() > 0 {
		j.fraction = float64(len(j.keys)) / float64(dim.Rows())
	}
	return j
}
