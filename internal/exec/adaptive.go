package exec

// adaptive.go adds the mid-query re-placement checkpoint to the placed
// executor: the pipeline's one breaker. The fact stage runs exactly as a
// streamed mixed run does — dimension builds on their placed devices, the
// same per-lane batch sources on the fact device — but its batches drain
// into buffered per-lane shipments instead of a tail. Then the run pauses:
// the observed survivor count is compared against the optimizer's
// estimate, and if the symmetric ratio exceeds the threshold the caller's
// replan hook re-runs the placement search for the unexecuted aggregation
// tail with the observed cardinality. The tail then runs on whichever
// device won — both tails consume identical shipments in identical order,
// so adaptation can change cycle counts but never answers.

import (
	"context"

	"castle/internal/plan"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// DefaultAdaptiveThreshold is the symmetric divergence ratio above which
// the checkpoint re-plans the tail: 2 means the observed survivor count
// must be off by more than 2x in either direction before the placement
// search re-runs. Small misestimates never flip the Figure-12 crossover,
// so re-planning under the threshold would be pure overhead.
const DefaultAdaptiveThreshold = 2.0

// AdaptiveOptions configures one adaptive run.
type AdaptiveOptions struct {
	// EstSurvivors is the planner's fact-stage survivor estimate the
	// checkpoint compares against (plan.PlacedPlan.EstSurvivors).
	EstSurvivors int64
	// Threshold is the symmetric divergence ratio that triggers a re-plan
	// (<= 0 selects DefaultAdaptiveThreshold). A ratio, not a percentage:
	// 2 fires when estimate and observation disagree by more than 2x.
	Threshold float64
	// Replan maps the observed survivor count to the aggregation tail's
	// device — typically a closure over optimizer.ReplaceTail. Nil keeps
	// the planned tail device (checkpoint fires are still reported).
	Replan func(observed int64) plan.Device
}

// AdaptiveStats reports what the checkpoint saw and did.
type AdaptiveStats struct {
	// EstSurvivors / Observed are the compared cardinalities.
	EstSurvivors int64
	Observed     int64
	// DivergencePct is the symmetric ratio as a percentage (100 = exact)
	// when defined; 0 when exactly one side was zero (no finite ratio —
	// see telemetry.DivergencePct).
	DivergencePct float64
	// Fired reports whether the divergence exceeded the threshold (or was
	// a zero-vs-nonzero split, which always fires).
	Fired bool
	// Replaced reports whether the tail actually moved to a different
	// device than planned.
	Replaced bool
	// TailDevice is where the aggregation tail ultimately ran.
	TailDevice plan.Device
}

// RunAdaptiveContext executes pp with the mid-query re-placement
// checkpoint. The checkpoint needs the complete observed count before the
// tail commits to a device, so the fact stage's batches are held until the
// stage finishes: nothing overlaps the crossing, and the whole shipment is
// resident at once (the run's PeakBatchBytes).
func (x *Placed) RunAdaptiveContext(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database,
	opts AdaptiveOptions) (*Result, AdaptiveStats, error) {

	st := AdaptiveStats{EstSurvivors: opts.EstSurvivors, TailDevice: pp.AggDevice()}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := x.check(pp, true); err != nil {
		return nil, st, err
	}

	q := pp.Phys.Query
	bk := newPlacedBreakdown()
	capeStart := x.castle.eng.TotalCycles()
	cpuStart := x.cpu.cpu.Cycles()

	attrKeys, shipCols := shipTailCols(q)
	buf := &shipBuffer{attrKeys: attrKeys}
	stream, err := x.runFactStage(ctx, pp, db, bk, buf)
	if err != nil {
		return nil, st, err
	}
	stream.OverlapCycles, stream.PeakBatchBytes = 0, 0
	for _, sh := range buf.ships {
		st.Observed += int64(sh.Len())
		stream.PeakBatchBytes += sh.ShipBytes(shipCols)
	}

	// --- Checkpoint: compare the observed survivor count against the
	// planner's estimate; past the threshold, re-run the tail placement
	// with the observation.
	threshold := opts.Threshold
	if threshold <= 0 {
		threshold = DefaultAdaptiveThreshold
	}
	var defined bool
	st.DivergencePct, defined = telemetry.DivergencePct(st.EstSurvivors, st.Observed)
	// A zero-vs-nonzero split has no finite ratio but is by definition a
	// gross misestimate: it always fires.
	st.Fired = !defined || st.DivergencePct > 100*threshold
	tailDev := pp.AggDevice()
	if st.Fired && opts.Replan != nil {
		tailDev = opts.Replan(st.Observed)
	}
	if tailDev == plan.DeviceCAPE && q.GroupedSumMul() {
		tailDev = plan.DeviceCPU
	}
	st.Replaced = tailDev != pp.AggDevice()
	st.TailDevice = tailDev

	// --- Aggregation tail on the (possibly re-placed) device, consuming
	// the identical shipments in identical lane order either way, as one
	// lane into one accumulator.
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	acc := newGroupAcc(q.Aggs)
	tail := x.newTail(tailDev, q, db, acc)
	tail.open(1)
	for _, sh := range buf.ships {
		if err := tail.consume(ctx, 0, sh); err != nil {
			return nil, st, err
		}
	}
	if err := x.closeTail(ctx, q, bk, tail, acc); err != nil {
		return nil, st, err
	}
	x.publish(bk, x.castle.eng.TotalCycles()-capeStart, x.cpu.cpu.Cycles()-cpuStart, stream)
	return acc.result(q), st, nil
}

// shipBuffer is the breaker's sink: each lane's batches concatenate back
// into one shipment, so the tail consumes — and chunks — exactly what the
// lane produced, whatever the batch boundaries were.
type shipBuffer struct {
	attrKeys []string
	ships    []*Batch
}

func (s *shipBuffer) open(k int) {
	s.ships = make([]*Batch, k)
	for i := range s.ships {
		s.ships[i] = NewBatch(0, s.attrKeys)
	}
}

func (s *shipBuffer) consume(_ context.Context, lane int, b *Batch) error {
	sh := s.ships[lane]
	sh.Rows = append(sh.Rows, b.Rows...)
	for _, key := range s.attrKeys {
		sh.Attrs[key] = append(sh.Attrs[key], b.Attrs[key]...)
	}
	return nil
}
