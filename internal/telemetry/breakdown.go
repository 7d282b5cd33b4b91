package telemetry

import (
	"fmt"
	"strings"
)

// OperatorStats is one row of an EXPLAIN ANALYZE breakdown: the simulated
// cycles (and, where meaningful, rows handled) attributed to one physical
// operator of the executed plan.
type OperatorStats struct {
	// Operator names the plan node, e.g. "prep:date", "join:part",
	// "filter", "aggregate", "overhead".
	Operator string
	// Device names the engine the operator ran on ("CAPE" or "CPU"); empty
	// on breakdowns recorded before per-operator placement existed.
	Device string
	// Cycles is the simulated cycle count attributed to the operator.
	Cycles int64
	// Rows is the operator's row cardinality (filtered dimension rows for
	// prep/join nodes, scanned fact rows for filter, groups for aggregate;
	// -1 when not meaningful).
	Rows int64
	// EstCycles is the placement cost model's predicted cycle count for the
	// operator, attached after execution via ApplyEstimates; 0 for rows the
	// model does not price ("overhead", per-tile sweep rows).
	EstCycles int64
	// EstSource is the provenance of the attached estimate ("assumed" or
	// "histogram"); empty for rows the model does not price.
	// A non-empty EstSource with EstCycles == 0 is a true zero estimate,
	// not an unpriced row.
	EstSource string
}

// Estimated reports whether the row carries an estimate at all. EstCycles
// alone cannot answer this: a zero-cardinality operator is legitimately
// estimated at zero cycles.
func (o OperatorStats) Estimated() bool {
	return o.EstSource != "" || o.EstCycles > 0
}

// Breakdown is the per-operator accounting of one executed query — the
// EXPLAIN ANALYZE surface. The operator cycle counts partition the total:
// sum(Operators[i].Cycles) == TotalCycles exactly (the executor closes the
// books with an explicit "overhead" row).
type Breakdown struct {
	// Device names the engine that ran ("CAPE", "CPU", or "CAPE+CPU" for
	// mixed per-operator placements).
	Device string
	// Operators lists plan nodes in execution order.
	Operators []OperatorStats
	// TotalCycles is the engine's end-to-end cycle count for the query.
	TotalCycles int64
}

// Clone returns a deep copy (executors hand these out across runs).
func (b *Breakdown) Clone() *Breakdown {
	if b == nil {
		return nil
	}
	out := &Breakdown{Device: b.Device, TotalCycles: b.TotalCycles}
	out.Operators = append([]OperatorStats(nil), b.Operators...)
	return out
}

// SumCycles returns the sum of the operator rows (== TotalCycles for a
// well-formed breakdown; tests assert the reconciliation).
func (b *Breakdown) SumCycles() int64 {
	if b == nil {
		return 0
	}
	var n int64
	for _, o := range b.Operators {
		n += o.Cycles
	}
	return n
}

// ApplyEstimates attaches per-operator predicted cycles (keyed by breakdown
// row name) to matching operator rows, and returns how many rows matched.
// Estimates without a matching row (e.g. a per-operator prediction against
// a parallel sweep's per-tile rows) are dropped; rows without an estimate
// keep EstCycles == 0 and render "-" in the est columns.
func (b *Breakdown) ApplyEstimates(est map[string]int64) int {
	if b == nil || len(est) == 0 {
		return 0
	}
	matched := 0
	for i := range b.Operators {
		if v, ok := est[b.Operators[i].Operator]; ok && v > 0 {
			b.Operators[i].EstCycles = v
			matched++
		}
	}
	return matched
}

// DivergencePct computes the symmetric-ratio divergence between a
// predicted and a measured count: max(est/act, act/est) as a percentage,
// so 100 means exact and 200 means off by 2x in either direction. The
// zero cases are guarded explicitly rather than floored away: both zero is
// an exact prediction (100, defined); exactly one zero has no finite ratio
// (0, undefined) — callers must branch on ok instead of recording a
// meaningless number.
func DivergencePct(est, act int64) (pct float64, ok bool) {
	if est <= 0 && act <= 0 {
		return 100, true
	}
	if est <= 0 || act <= 0 {
		return 0, false
	}
	r := float64(est) / float64(act)
	if r < 1 {
		r = 1 / r
	}
	return 100 * r, true
}

// EstimateCell is one row's estimate with provenance, the source-aware
// form of an ApplyEstimates value (mirrors plan.EstCell without importing
// the plan package).
type EstimateCell struct {
	Cycles int64
	Source string
}

// ApplyEstimateCells attaches source-tagged per-operator predictions,
// keyed by breakdown row name, and returns how many rows matched. Unlike
// ApplyEstimates, a zero-cycle cell still attaches — its non-empty Source
// marks the row as estimated, so divergence telemetry can distinguish
// "predicted zero" from "never priced".
func (b *Breakdown) ApplyEstimateCells(est map[string]EstimateCell) int {
	if b == nil || len(est) == 0 {
		return 0
	}
	matched := 0
	for i := range b.Operators {
		if c, ok := est[b.Operators[i].Operator]; ok {
			b.Operators[i].EstCycles = c.Cycles
			b.Operators[i].EstSource = c.Source
			matched++
		}
	}
	return matched
}

// FlightOps projects the rows onto a flight record's operator list; a row
// without a device inherits the breakdown's. Nil for a nil breakdown.
func (b *Breakdown) FlightOps() []FlightOp {
	if b == nil {
		return nil
	}
	ops := make([]FlightOp, 0, len(b.Operators))
	for _, o := range b.Operators {
		dev := o.Device
		if dev == "" {
			dev = b.Device
		}
		ops = append(ops, FlightOp{
			Operator: o.Operator, Device: dev,
			EstCycles: o.EstCycles, Cycles: o.Cycles, Rows: o.Rows,
			EstSource: o.EstSource,
		})
	}
	return ops
}

// SumEstCycles sums the attached per-operator predictions.
func (b *Breakdown) SumEstCycles() int64 {
	if b == nil {
		return 0
	}
	var n int64
	for _, o := range b.Operators {
		n += o.EstCycles
	}
	return n
}

// Format renders the aligned EXPLAIN ANALYZE table:
//
//	operator           cycles      share    rows
//	prep:date          1234        0.1%     2556
//	join:date          456789     42.3%     2556
//	...
//	total              1080000    100.0%
//
// A device column renders when any operator carries one (placed plans), and
// est / est/act columns render when any operator carries a prediction.
func (b *Breakdown) Format() string {
	if b == nil {
		return ""
	}
	// Optional columns render only when any operator populates them; older
	// breakdowns without devices or estimates keep the narrow table.
	withDevice, withEst, withSrc := false, false, false
	for _, o := range b.Operators {
		if o.Device != "" {
			withDevice = true
		}
		if o.Estimated() {
			withEst = true
		}
		if o.EstSource != "" {
			withSrc = true
		}
	}
	var sb strings.Builder
	if withDevice {
		fmt.Fprintf(&sb, "%-20s %-8s %14s %8s %12s", "operator", "device", "cycles", "share", "rows")
	} else {
		fmt.Fprintf(&sb, "%-20s %14s %8s %12s", "operator", "cycles", "share", "rows")
	}
	if withEst {
		fmt.Fprintf(&sb, " %14s %8s", "est", "est/act")
	}
	if withSrc {
		fmt.Fprintf(&sb, " %-10s", "est-src")
	}
	sb.WriteByte('\n')
	for _, o := range b.Operators {
		share := 0.0
		if b.TotalCycles > 0 {
			share = 100 * float64(o.Cycles) / float64(b.TotalCycles)
		}
		rows := ""
		if o.Rows >= 0 {
			rows = fmt.Sprintf("%d", o.Rows)
		}
		if withDevice {
			fmt.Fprintf(&sb, "%-20s %-8s %14d %7.1f%% %12s", o.Operator, o.Device, o.Cycles, share, rows)
		} else {
			fmt.Fprintf(&sb, "%-20s %14d %7.1f%% %12s", o.Operator, o.Cycles, share, rows)
		}
		if withEst {
			est, ratio := "-", "-"
			if o.Estimated() {
				est = fmt.Sprintf("%d", o.EstCycles)
				if o.Cycles > 0 {
					ratio = fmt.Sprintf("%.2f", float64(o.EstCycles)/float64(o.Cycles))
				} else if o.EstCycles == 0 {
					// Both sides zero: the prediction was exact.
					ratio = "1.00"
				}
			}
			fmt.Fprintf(&sb, " %14s %8s", est, ratio)
		}
		if withSrc {
			src := "-"
			if o.EstSource != "" {
				src = o.EstSource
			}
			fmt.Fprintf(&sb, " %-10s", src)
		}
		sb.WriteByte('\n')
	}
	if withDevice {
		fmt.Fprintf(&sb, "%-20s %-8s %14d %7.1f%%\n", "total ("+b.Device+")", "", b.TotalCycles, 100.0)
	} else {
		fmt.Fprintf(&sb, "%-20s %14d %7.1f%%\n", "total ("+b.Device+")", b.TotalCycles, 100.0)
	}
	return sb.String()
}
