package exec

import (
	"context"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/plan"
	"castle/internal/stats"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// Hybrid routes each query to the better engine, implementing the paper's
// deployment model: "CAPE being closely integrated in a tiled architecture
// along other cores allows for a software architecture in which such
// decisions are made dynamically" (§7.2). The heuristics come straight
// from the microbenchmark crossovers:
//
//   - aggregations with more than ~5,000 estimated groups run on the CPU
//     (Figure 12: "such aggregates are better evaluated on the CPU");
//   - joins whose filtered probe side exceeds ~250K rows run on the CPU
//     (Figure 11: parity near 250K-row dimensions);
//   - everything else runs on CAPE.
//
// The routed device becomes a uniform placement run by the placed
// executor, the same path per-operator placements take.
type Hybrid struct {
	cat    *stats.Catalog
	placed *Placed
}

// NewHybrid couples a Castle executor and a baseline executor.
func NewHybrid(castle *Castle, cpu *CPUExec, cat *stats.Catalog) *Hybrid {
	return &Hybrid{cat: cat, placed: NewPlaced(castle, cpu, cat)}
}

// SetParallelism sets the fact-sweep fan-out degree for subsequent runs on
// whichever device the routing heuristics pick.
func (h *Hybrid) SetParallelism(k int) { h.placed.SetParallelism(k) }

// Device names the engine a hybrid decision selected. It aliases
// plan.Device so whole-query routing decisions and per-operator placements
// (plan.PlacedPlan) speak the same vocabulary.
type Device = plan.Device

// Devices.
const (
	DeviceCAPE = plan.DeviceCAPE
	DeviceCPU  = plan.DeviceCPU
)

// EstimateGroups predicts the number of result groups: the product of the
// group columns' distinct counts, capped by the fact cardinality.
func (h *Hybrid) EstimateGroups(q *plan.Query) int {
	return estimateGroups(q, h.cat)
}

func estimateGroups(q *plan.Query, cat *stats.Catalog) int {
	if len(q.GroupBy) == 0 {
		return 1
	}
	groups := 1
	for _, g := range q.GroupBy {
		if cs, ok := cat.Column(g.Table, g.Column); ok && cs.Distinct > 0 {
			if groups > 1<<30/cs.Distinct {
				groups = 1 << 30
				break
			}
			groups *= cs.Distinct
		}
	}
	if rows := cat.MustTable(q.Fact).Rows; groups > rows {
		groups = rows
	}
	return groups
}

// DecideDevice applies the §7.2 crossover heuristics to a plan without
// needing executor (or engine) instances — the serving layer routes
// DeviceHybrid requests with it before acquiring a CAPE tile or CPU slot.
// Zero thresholds select the paper's crossover defaults. A grouped
// SUM(a*b) always routes to the CPU, the only device that can aggregate it.
func DecideDevice(p *plan.Physical, cat *stats.Catalog, groupThreshold, dimThreshold int) Device {
	if groupThreshold <= 0 {
		groupThreshold = 5000
	}
	if dimThreshold <= 0 {
		dimThreshold = 250_000
	}
	q := p.Query
	if q.GroupedSumMul() || estimateGroups(q, cat) > groupThreshold {
		return DeviceCPU
	}
	for _, j := range q.Joins {
		// Filtered probe-side size (right-deep direction probes with the
		// filtered dimension).
		total := float64(cat.MustTable(j.Dim).Rows)
		sel := 1.0
		for _, pr := range q.DimPreds[j.Dim] {
			sel *= predSelectivity(cat, pr)
		}
		if int(total*sel) > dimThreshold {
			return DeviceCPU
		}
	}
	return DeviceCAPE
}

// predSelectivity mirrors the optimizer's estimate without importing it
// (avoiding an exec -> optimizer dependency cycle).
func predSelectivity(cat *stats.Catalog, p plan.Predicate) float64 {
	if p.Never {
		return 0
	}
	cs, ok := cat.Column(p.Table, p.Column)
	if !ok {
		return 1
	}
	switch p.Op {
	case plan.PredEQ:
		return cs.EqSelectivity()
	case plan.PredNE:
		return 1 - cs.EqSelectivity()
	case plan.PredLT, plan.PredLE:
		return cs.RangeSelectivity(cs.Min, p.Value)
	case plan.PredGT, plan.PredGE:
		return cs.RangeSelectivity(p.Value, cs.Max)
	case plan.PredBetween:
		return cs.RangeSelectivity(p.Lo, p.Hi)
	case plan.PredIn:
		return cs.InSelectivity(len(p.Values))
	}
	return 1
}

// Run executes the plan on the selected engine and reports which one ran.
func (h *Hybrid) Run(p *plan.Physical, db *storage.Database) (*Result, Device) {
	res, dev, _ := h.RunContext(context.Background(), p, db)
	return res, dev
}

// RunContext is Run with cancellation: the crossover heuristics pick the
// device, and the placed executor runs the plan pinned to it.
func (h *Hybrid) RunContext(ctx context.Context, p *plan.Physical, db *storage.Database) (*Result, Device, error) {
	dev := DecideDevice(p, h.cat, 0, 0)
	res, err := h.placed.RunContext(ctx, plan.Compile(p, dev), db)
	return res, dev, err
}

// RunPlacedContext executes a placed pipeline on the hybrid's engines (see
// Placed.RunContext) and returns the fact-stage device as the headline
// device.
func (h *Hybrid) RunPlacedContext(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database) (*Result, Device, error) {
	res, err := h.placed.RunContext(ctx, pp, db)
	return res, pp.FactDevice(), err
}

// Cycles returns the cycle count of whichever engine ran last under the
// given decision (callers snapshot engines around Run for finer control).
func (h *Hybrid) Cycles(d Device) int64 {
	if d == DeviceCPU {
		return h.placed.cpu.CPU().Cycles()
	}
	return h.placed.castle.Engine().Stats().TotalCycles()
}

// SetTelemetry forwards a telemetry sink and parent span to both
// underlying executors and the placed pipeline over them (either argument
// may be nil).
func (h *Hybrid) SetTelemetry(tel *telemetry.Telemetry, parent *telemetry.Span) {
	h.placed.SetTelemetry(tel, parent)
}

// Castle returns the CAPE-side executor.
func (h *Hybrid) Castle() *Castle { return h.placed.castle }

// CPUExec returns the baseline-side executor.
func (h *Hybrid) CPUExec() *CPUExec { return h.placed.cpu }

// NewDefaultHybrid builds a hybrid with fresh engines at the paper's design
// points.
func NewDefaultHybrid(capeCfg cape.Config, cat *stats.Catalog) *Hybrid {
	castle := NewCastle(cape.New(capeCfg), cat, DefaultCastleOptions())
	cpu := NewCPUExec(baseline.New(baseline.DefaultConfig()))
	return NewHybrid(castle, cpu, cat)
}
