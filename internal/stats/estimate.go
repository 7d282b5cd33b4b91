package stats

// estimate.go is the catalog's predicate-estimation surface: the single
// place that turns a bound predicate into a selectivity, tagged with where
// the number came from. The optimizer's placement search and the facade's
// misestimate telemetry consume the same (selectivity, Source) pairs, so
// "histogram-driven" and "assumed" estimates stay distinguishable end to
// end.

import (
	"math"

	"castle/internal/plan"
)

// Source identifies where a cardinality estimate came from.
type Source int

const (
	// SourceAssumed marks a fixed-constant (Selinger default) estimate made
	// without consulting column statistics — either because the column is
	// unknown to the catalog or because the fixed model was requested.
	SourceAssumed Source = iota
	// SourceHistogram marks an estimate derived from collected statistics:
	// equi-depth histograms, distinct counts, min/max bounds.
	SourceHistogram
)

// String renders the source the way flight records and EXPLAIN ANALYZE
// print it.
func (s Source) String() string {
	switch s {
	case SourceHistogram:
		return "histogram"
	default:
		return "assumed"
	}
}

// Estimate returns the fraction of rows the predicate retains and the
// provenance of that number. Known columns are priced from collected
// statistics (SourceHistogram); unknown columns fall back to selectivity 1
// with SourceAssumed. A bind-time contradiction (p.Never) is exact
// knowledge, not an assumption.
func (c *Catalog) Estimate(p plan.Predicate) (float64, Source) {
	if p.Never {
		return 0, SourceHistogram
	}
	cs, ok := c.Column(p.Table, p.Column)
	if !ok {
		return 1, SourceAssumed
	}
	switch p.Op {
	case plan.PredEQ:
		return cs.EqSelectivity(), SourceHistogram
	case plan.PredNE:
		return 1 - cs.EqSelectivity(), SourceHistogram
	case plan.PredLT:
		if p.Value == 0 {
			return 0, SourceHistogram
		}
		return cs.RangeSelectivity(cs.Min, p.Value-1), SourceHistogram
	case plan.PredLE:
		return cs.RangeSelectivity(cs.Min, p.Value), SourceHistogram
	case plan.PredGT:
		if p.Value == math.MaxUint32 {
			return 0, SourceHistogram
		}
		return cs.RangeSelectivity(p.Value+1, cs.Max), SourceHistogram
	case plan.PredGE:
		return cs.RangeSelectivity(p.Value, cs.Max), SourceHistogram
	case plan.PredBetween:
		return cs.RangeSelectivity(p.Lo, p.Hi), SourceHistogram
	case plan.PredIn:
		return cs.InSelectivity(len(p.Values)), SourceHistogram
	}
	return 1, SourceAssumed
}

// EstimateConjunction multiplies the independent selectivities of a
// predicate list. The source is SourceHistogram only when every conjunct
// was statistics-backed; one assumed term taints the product.
func (c *Catalog) EstimateConjunction(preds []plan.Predicate) (float64, Source) {
	s, src := 1.0, SourceHistogram
	for _, p := range preds {
		ps, psrc := c.Estimate(p)
		s *= ps
		if psrc == SourceAssumed {
			src = SourceAssumed
		}
	}
	return s, src
}

// Fixed-constant Selinger defaults (System R's magic numbers), used when a
// column has no statistics and by the bench harness to quantify what the
// histograms buy.
const (
	fixedEqSelectivity    = 0.1
	fixedRangeSelectivity = 1.0 / 3.0
	fixedBetweenSel       = 0.25
)

// FixedEstimate prices a predicate with the classic fixed-constant model —
// no statistics consulted. This is the "assumed" baseline the bench
// artifact's misestimate summary compares the histogram model against.
func FixedEstimate(p plan.Predicate) float64 {
	if p.Never {
		return 0
	}
	switch p.Op {
	case plan.PredEQ:
		return fixedEqSelectivity
	case plan.PredNE:
		return 1 - fixedEqSelectivity
	case plan.PredLT, plan.PredLE, plan.PredGT, plan.PredGE:
		return fixedRangeSelectivity
	case plan.PredBetween:
		return fixedBetweenSel
	case plan.PredIn:
		s := float64(len(p.Values)) * fixedEqSelectivity
		if s > 1 {
			s = 1
		}
		return s
	}
	return 1
}

// GroupCardinality predicts the number of result groups for a GROUP BY over
// the given fact table: the product of the group columns' distinct counts,
// capped at 1<<30 and by the fact cardinality. The source degrades to
// SourceAssumed when any group column has no statistics (its contribution
// is silently 1).
func (c *Catalog) GroupCardinality(fact string, groupBy []plan.ColRef) (int, Source) {
	if len(groupBy) == 0 {
		return 1, SourceHistogram
	}
	groups, src := 1, SourceHistogram
	for _, g := range groupBy {
		cs, ok := c.Column(g.Table, g.Column)
		if !ok || cs.Distinct <= 0 {
			src = SourceAssumed
			continue
		}
		if groups > 1<<30/cs.Distinct {
			groups = 1 << 30
			break
		}
		groups *= cs.Distinct
	}
	if t := c.Table(fact); t != nil && groups > t.Rows {
		groups = t.Rows
	}
	return groups, src
}
