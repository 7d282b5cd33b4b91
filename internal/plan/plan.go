// Package plan defines Castle's logical query representation and the
// physical plan shapes of Section 3.4 (left-deep, right-deep, zig-zag).
//
// A parsed SELECT is bound against a schema into a star Query: one fact
// relation, per-relation selection predicates, a set of fact-to-dimension
// join edges, group-by columns and aggregate expressions. The optimizer
// (internal/optimizer) turns a Query into a Physical plan; both the CAPE and
// the baseline executors consume the same structures.
package plan

import (
	"fmt"
	"strings"
)

// PredOp is a selection predicate operator.
type PredOp int

// Predicate operators.
const (
	PredEQ PredOp = iota
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
	PredBetween // inclusive range
	PredIn      // set membership (also folded OR-of-equalities)
)

func (o PredOp) String() string {
	switch o {
	case PredEQ:
		return "="
	case PredNE:
		return "<>"
	case PredLT:
		return "<"
	case PredLE:
		return "<="
	case PredGT:
		return ">"
	case PredGE:
		return ">="
	case PredBetween:
		return "BETWEEN"
	case PredIn:
		return "IN"
	}
	return fmt.Sprintf("pred(%d)", int(o))
}

// Predicate is a single-column selection with literal operands already
// encoded into the column's 32-bit domain.
type Predicate struct {
	Table  string
	Column string
	Op     PredOp
	// Value is the operand for EQ/NE/LT/LE/GT/GE.
	Value uint32
	// Lo, Hi bound PredBetween (inclusive).
	Lo, Hi uint32
	// Values lists PredIn members.
	Values []uint32
	// Never marks a predicate that statically matches nothing (e.g. an
	// equality against a string absent from the dictionary).
	Never bool
}

func (p Predicate) String() string {
	if p.Never {
		return fmt.Sprintf("%s.%s NEVER", p.Table, p.Column)
	}
	switch p.Op {
	case PredBetween:
		return fmt.Sprintf("%s.%s BETWEEN %d AND %d", p.Table, p.Column, p.Lo, p.Hi)
	case PredIn:
		return fmt.Sprintf("%s.%s IN %v", p.Table, p.Column, p.Values)
	default:
		return fmt.Sprintf("%s.%s %s %d", p.Table, p.Column, p.Op, p.Value)
	}
}

// Matches evaluates the predicate against an encoded value.
func (p Predicate) Matches(v uint32) bool {
	if p.Never {
		return false
	}
	switch p.Op {
	case PredEQ:
		return v == p.Value
	case PredNE:
		return v != p.Value
	case PredLT:
		return v < p.Value
	case PredLE:
		return v <= p.Value
	case PredGT:
		return v > p.Value
	case PredGE:
		return v >= p.Value
	case PredBetween:
		return v >= p.Lo && v <= p.Hi
	case PredIn:
		for _, x := range p.Values {
			if v == x {
				return true
			}
		}
		return false
	}
	return false
}

// ColRef names table.column.
type ColRef struct {
	Table  string
	Column string
}

func (c ColRef) String() string { return c.Table + "." + c.Column }

// AggKind distinguishes aggregate expression shapes over fact columns.
type AggKind int

// Aggregate expression shapes.
const (
	AggSumCol        AggKind = iota // SUM(col)
	AggSumMul                       // SUM(a * b)
	AggSumSub                       // SUM(a - b)
	AggCount                        // COUNT(*) / COUNT(col)
	AggMin                          // MIN(col)
	AggMax                          // MAX(col)
	AggAvg                          // AVG(col), integer floor semantics
	AggCountDistinct                // COUNT(DISTINCT col)
)

// AggExpr is one aggregate output.
type AggExpr struct {
	Kind  AggKind
	A, B  string // fact column names (B unused for AggSumCol/AggCount)
	Alias string
}

func (a AggExpr) String() string {
	switch a.Kind {
	case AggSumCol:
		return fmt.Sprintf("SUM(%s)", a.A)
	case AggSumMul:
		return fmt.Sprintf("SUM(%s*%s)", a.A, a.B)
	case AggSumSub:
		return fmt.Sprintf("SUM(%s-%s)", a.A, a.B)
	case AggCount:
		return "COUNT(*)"
	case AggMin:
		return fmt.Sprintf("MIN(%s)", a.A)
	case AggMax:
		return fmt.Sprintf("MAX(%s)", a.A)
	case AggAvg:
		return fmt.Sprintf("AVG(%s)", a.A)
	case AggCountDistinct:
		return fmt.Sprintf("COUNT(DISTINCT %s)", a.A)
	}
	return "agg?"
}

// JoinEdge is a fact-to-dimension equi-join. The dimension key column is
// assumed unique (a primary key, as in every star schema): executors
// materialize at most one attribute tuple per key.
type JoinEdge struct {
	Dim    string // dimension relation
	FactFK string // fact foreign-key column
	DimKey string // dimension key column
	// NeedAttrs are dimension attributes the query projects or groups by;
	// the join must materialize them into fact-aligned vectors.
	NeedAttrs []string
}

func (j JoinEdge) String() string {
	s := fmt.Sprintf("%s (%s = %s)", j.Dim, j.FactFK, j.DimKey)
	if len(j.NeedAttrs) > 0 {
		s += " attrs=" + strings.Join(j.NeedAttrs, ",")
	}
	return s
}

// OrderTerm is one ORDER BY key: either a group-by column (KeyIdx >= 0)
// or an aggregate output (AggIdx >= 0).
type OrderTerm struct {
	KeyIdx int // index into GroupBy, or -1
	AggIdx int // index into Aggs, or -1
	Desc   bool
}

func (o OrderTerm) String() string {
	dir := "ASC"
	if o.Desc {
		dir = "DESC"
	}
	if o.KeyIdx >= 0 {
		return fmt.Sprintf("key[%d] %s", o.KeyIdx, dir)
	}
	return fmt.Sprintf("agg[%d] %s", o.AggIdx, dir)
}

// Query is a bound star-schema query.
type Query struct {
	Fact      string
	FactPreds []Predicate
	DimPreds  map[string][]Predicate
	Joins     []JoinEdge
	GroupBy   []ColRef
	Aggs      []AggExpr
	OrderBy   []OrderTerm
	// Limit caps the result rows after ordering; 0 means no limit.
	Limit int
}

// HasGroupCol reports whether table.column is already a group-by key.
func (q *Query) HasGroupCol(table, column string) bool {
	for _, g := range q.GroupBy {
		if g.Table == table && g.Column == column {
			return true
		}
	}
	return false
}

// GroupedSumMul reports the one aggregate shape CAPE's aggregation kernel
// rejects: SUM(a*b) under GROUP BY needs bit-serial vv arithmetic in GP
// layout, which cannot coexist with the CAM-mode group searches. Such a
// query's aggregation tail can only run on the CPU.
func (q *Query) GroupedSumMul() bool {
	if len(q.GroupBy) == 0 {
		return false
	}
	for _, a := range q.Aggs {
		if a.Kind == AggSumMul {
			return true
		}
	}
	return false
}

// JoinFor returns the join edge for a dimension table, or nil.
func (q *Query) JoinFor(dim string) *JoinEdge {
	for i := range q.Joins {
		if q.Joins[i].Dim == dim {
			return &q.Joins[i]
		}
	}
	return nil
}

// String renders a one-line summary.
func (q *Query) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fact=%s joins=[", q.Fact)
	for i, j := range q.Joins {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(j.String())
	}
	b.WriteString("]")
	if len(q.GroupBy) > 0 {
		fmt.Fprintf(&b, " groupby=%v", q.GroupBy)
	}
	return b.String()
}

// Shape is a physical plan shape (§3.4, Figure 5).
type Shape int

// Plan shapes.
const (
	// LeftDeep uses the fact relation as the probe side throughout:
	// dimension partitions are stored in the CSB and probed once per fact
	// (or intermediate-result) row. Traditional systems favor this shape.
	LeftDeep Shape = iota
	// RightDeep stores the fact relation in the CSB; every dimension
	// probes it. Cost is independent of join order (§3.4).
	RightDeep
	// ZigZag starts right-deep and switches the probe direction mid-plan
	// once the intermediate result is smaller than the remaining
	// dimensions.
	ZigZag
)

func (s Shape) String() string {
	switch s {
	case LeftDeep:
		return "left-deep"
	case RightDeep:
		return "right-deep"
	case ZigZag:
		return "zig-zag"
	}
	return fmt.Sprintf("shape(%d)", int(s))
}

// Physical is an ordered join plan for a Query.
//
// Joins[0:Switch] execute right-deep (the filtered dimension probes the
// CSB-resident fact partition), Joins[Switch:] execute left-deep (the
// intermediate result probes CSB-resident dimension partitions). Switch ==
// len(Joins) is a pure right-deep plan; Switch == 0 is pure left-deep.
type Physical struct {
	Query  *Query
	Joins  []JoinEdge // execution order
	Switch int
	// EstimatedSearches is the optimizer's cost (Figure 5's unit).
	EstimatedSearches int64
}

// Shape classifies the plan.
func (p *Physical) Shape() Shape {
	switch {
	case p.Switch == 0 && len(p.Joins) > 0:
		return LeftDeep
	case p.Switch == len(p.Joins):
		return RightDeep
	default:
		return ZigZag
	}
}

// String renders the plan.
func (p *Physical) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s plan (%d searches est.): ", p.Shape(), p.EstimatedSearches)
	for i, j := range p.Joins {
		if i > 0 {
			b.WriteString(" -> ")
		}
		dir := "dim probes fact"
		if i >= p.Switch {
			dir = "intermediate probes dim"
		}
		fmt.Fprintf(&b, "%s[%s]", j.Dim, dir)
	}
	return b.String()
}
