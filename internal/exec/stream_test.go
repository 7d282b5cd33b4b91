package exec

// stream_test.go pins the streaming pipeline's contract: results
// bit-identical to the reference at every placement and fan-out, books that
// still partition the total exactly once the xfer-overlap credit row is
// included, the double-buffer accounting identities at 0/1/2 batches,
// O(K·MAXVL) peak residency, zero-row and partial final batches,
// cancellation landing between batches, and a materialized reference run
// the overlap credit is measured against.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/plan"
	"castle/internal/ssb"
	"castle/internal/storage"
)

func newCPUHarness() *CPUExec {
	return NewCPUExec(baseline.New(baseline.DefaultConfig()))
}

// capeFactPlacement forces the fact stage (and dimension builds) onto CAPE
// with the aggregation tail on the CPU — the crossing the double-buffered
// channel accelerates.
func capeFactPlacement(p *plan.Physical) *plan.PlacedPlan {
	dimDev := make(map[string]plan.Device, len(p.Joins))
	for _, e := range p.Joins {
		dimDev[e.Dim] = plan.DeviceCAPE
	}
	return plan.Compile(p, plan.DeviceCAPE).Place(plan.DeviceCAPE, plan.DeviceCPU, dimDev)
}

// TestXferChannelFillDrain pins the double-buffer identities at batch
// counts 0, 1 and 2: no credit without an interior edge, credit
// min(T_1, C_2) at two batches, and peak residency covering both in-flight
// buffers.
func TestXferChannelFillDrain(t *testing.T) {
	var ch xferChannel
	if ch.batches != 0 || ch.credit != 0 || ch.peakBytes != 0 || ch.xferCycles != 0 {
		t.Fatalf("zero channel not zero: %+v", ch)
	}

	// One batch: pure fill + drain, nothing hides.
	ch = xferChannel{}
	ch.record(100, 50, 64)
	if ch.credit != 0 {
		t.Errorf("1 batch: credit %d, want 0 (fill+drain only)", ch.credit)
	}
	if ch.xferCycles != 50 || ch.peakBytes != 64 || ch.batches != 1 {
		t.Errorf("1 batch: xfer=%d peak=%d batches=%d, want 50/64/1", ch.xferCycles, ch.peakBytes, ch.batches)
	}

	// Two batches, transfer-bound interior edge: batch 1's transfer (50)
	// hides under batch 2's compute (80) → credit 50; both buffers resident.
	ch = xferChannel{}
	ch.record(100, 50, 64)
	ch.record(80, 30, 32)
	if ch.credit != 50 {
		t.Errorf("2 batches: credit %d, want min(T1=50, C2=80) = 50", ch.credit)
	}
	if ch.peakBytes != 96 {
		t.Errorf("2 batches: peak %d, want 64+32 = 96", ch.peakBytes)
	}
	if ch.xferCycles != 80 {
		t.Errorf("2 batches: xferCycles %d, want 80", ch.xferCycles)
	}

	// Compute-bound interior edge: only C_2 of T_1 hides.
	ch = xferChannel{}
	ch.record(10, 50, 8)
	ch.record(20, 60, 8)
	if ch.credit != 20 {
		t.Errorf("compute-bound: credit %d, want min(T1=50, C2=20) = 20", ch.credit)
	}
}

func TestOverlapElapsedCredit(t *testing.T) {
	// Critical lane shifts: work-critical lane 0 (100), effective-critical
	// stays lane 0 (70 vs 70) → elapsed saves 30.
	if got := overlapElapsedCredit([]int64{100, 80}, []int64{30, 10}); got != 30 {
		t.Errorf("credit = %d, want 30", got)
	}
	// No credits → no saving.
	if got := overlapElapsedCredit([]int64{100}, []int64{0}); got != 0 {
		t.Errorf("credit = %d, want 0", got)
	}
	// Empty fan-out degenerates to zero.
	if got := overlapElapsedCredit(nil, nil); got != 0 {
		t.Errorf("credit = %d, want 0", got)
	}
}

// TestStreamingMatchesMaterializingSSB is the pipeline gate: every SSB
// query, every forced mixed split, every fan-out in {1,2,4} — the streamed
// run must return results bit-identical to the reference, with balanced
// books and peak batch residency inside the double-buffer bound.
func TestStreamingMatchesMaterializingSSB(t *testing.T) {
	database, cat := db(t)
	for _, qq := range ssb.Queries() {
		q := bindQuery(t, database, qq.SQL)
		p := optimize(t, q, cat, smallCape().MAXVL)
		want := Reference(q, database)
		bound := int64(4 * ShipTupleFields(q))
		for pi, pp := range forcedPlacements(p) {
			for _, k := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s placement=%d fact=%s k=%d", qq.Flight, pi, pp.FactDevice(), k)
				x := newPlacedHarness(cat)
				x.SetParallelism(k)
				res, err := x.Run(pp, database)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !want.Equal(res) {
					t.Errorf("%s: streaming diverged from reference\nwant:\n%s\ngot:\n%s",
						label, want.Format(database), res.Format(database))
					continue
				}
				checkPlacedBooks(t, x, label)
				st := x.StreamStats()
				if st.Batches == 0 {
					t.Errorf("%s: streaming run pulled no batches", label)
				}
				if max := int64(2*k*smallCape().MAXVL) * bound; st.PeakBatchBytes > max {
					t.Errorf("%s: peak batch bytes %d exceed double-buffer bound %d", label, st.PeakBatchBytes, max)
				}
			}
		}
	}
}

// TestStreamingUniformMatchesMaterializing covers the single-device
// executors: the CPU chunked sweep and the CAPE partition pipeline must be
// bit-identical to the reference on all SSB queries and report batches.
func TestStreamingUniformMatchesMaterializing(t *testing.T) {
	database, cat := db(t)
	for _, qq := range ssb.Queries() {
		q := bindQuery(t, database, qq.SQL)
		p := optimize(t, q, cat, smallCape().MAXVL)
		want := Reference(q, database)
		for _, k := range []int{1, 2, 4} {
			cx := newCPUHarness()
			cx.SetParallelism(k)
			res, err := cx.RunContext(context.Background(), q, database)
			if err != nil {
				t.Fatalf("%s cpu k=%d: %v", qq.Flight, k, err)
			}
			if !want.Equal(res) {
				t.Errorf("%s cpu k=%d: streaming diverged from reference", qq.Flight, k)
			}
			if st := cx.StreamStats(); st.Batches == 0 {
				t.Errorf("%s cpu k=%d: no batches recorded", qq.Flight, k)
			}

			x := newPlacedHarness(cat)
			x.castle.SetParallelism(k)
			cres := x.castle.Run(p, database)
			if !want.Equal(cres) {
				t.Errorf("%s cape k=%d: streaming diverged from reference", qq.Flight, k)
			}
			if st := x.castle.StreamStats(); st.Batches == 0 {
				t.Errorf("%s cape k=%d: no batches recorded", qq.Flight, k)
			}
		}
	}
}

// shipAll is the materialized reference sink: it holds every lane's batches
// as one shipment per lane until the fact stage ends, then feeds them to the
// real aggregation tail as one lane.
type shipAll struct {
	tail     aggTail
	attrKeys []string
	ships    []*Batch
}

func (s *shipAll) open(k int) {
	s.ships = make([]*Batch, k)
	for i := range s.ships {
		s.ships[i] = NewBatch(0, s.attrKeys)
	}
}

func (s *shipAll) consume(_ context.Context, lane int, b *Batch) error {
	sh := s.ships[lane]
	sh.Rows = append(sh.Rows, b.Rows...)
	for _, key := range s.attrKeys {
		sh.Attrs[key] = append(sh.Attrs[key], b.Attrs[key]...)
	}
	return nil
}

func (s *shipAll) finish() (int64, int64) {
	s.tail.open(1)
	for _, sh := range s.ships {
		if err := s.tail.consume(context.Background(), 0, sh); err != nil {
			panic(err)
		}
	}
	return s.tail.finish()
}

func (s *shipAll) device() plan.Device { return s.tail.device() }

// runMaterialized runs the mixed placement pp with its fact stage draining
// into shipAll: the same fact stage and tail as a streamed run, but nothing
// reaches the tail before the stage ends, so no transfer overlaps compute.
// It returns the run's elapsed total.
func runMaterialized(t *testing.T, x *Placed, pp *plan.PlacedPlan, database *storage.Database) int64 {
	t.Helper()
	ctx := context.Background()
	q := pp.Phys.Query
	capeStart, cpuStart := x.castle.eng.TotalCycles(), x.cpu.cpu.Cycles()
	bk := newPlacedBreakdown()
	acc := newGroupAcc(q.Aggs)
	attrKeys, _ := shipTailCols(q)
	ref := &shipAll{tail: x.newTail(pp.AggDevice(), q, database, acc), attrKeys: attrKeys}
	stream, err := x.runFactStage(ctx, pp, database, bk, ref)
	if err != nil {
		t.Fatal(err)
	}
	stream.OverlapCycles = 0
	if err := x.closeTail(ctx, q, bk, ref, acc); err != nil {
		t.Fatal(err)
	}
	x.publish(bk, x.castle.eng.TotalCycles()-capeStart, x.cpu.cpu.Cycles()-cpuStart, stream)
	return x.Breakdown().TotalCycles
}

// TestStreamedEqualsMaterializedMinusCredit pins the strongest accounting
// identity the CAPE-fact→CPU-agg split offers: consumption is charge-neutral
// (per-batch folding costs exactly what the bulk pass would), so the
// streamed elapsed total equals the materialized total minus the overlap
// credit — cycle for cycle, at every fan-out.
func TestStreamedEqualsMaterializedMinusCredit(t *testing.T) {
	database, cat := db(t)
	for _, qq := range ssb.Queries() {
		q := bindQuery(t, database, qq.SQL)
		p := optimize(t, q, cat, smallCape().MAXVL)
		pp := capeFactPlacement(p)
		for _, k := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s k=%d", qq.Flight, k)

			xm := newPlacedHarness(cat)
			xm.SetParallelism(k)
			mat := runMaterialized(t, xm, pp, database)

			xs := newPlacedHarness(cat)
			xs.SetParallelism(k)
			if _, err := xs.Run(pp, database); err != nil {
				t.Fatalf("%s streaming: %v", label, err)
			}
			str := xs.Breakdown().TotalCycles
			credit := xs.StreamStats().OverlapCycles

			if str != mat-credit {
				t.Errorf("%s: streamed total %d != materialized %d - credit %d = %d",
					label, str, mat, credit, mat-credit)
			}
		}
	}
}

// TestStreamingZeroRowBatches drives a needle-in-haystack predicate through
// the streamed crossing: almost every batch carries zero survivors, yet all
// partitions are pulled and the answer matches the reference.
func TestStreamingZeroRowBatches(t *testing.T) {
	database, cat := db(t)
	lo := database.MustTable("lineorder")
	key := lo.MustColumn("lo_orderkey").Data[lo.Rows()/2]
	q := bindQuery(t, database, fmt.Sprintf(`
		SELECT SUM(lo_revenue) AS r
		FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND lo_orderkey = %d`, key))
	cfg := smallCape()
	cfg.MAXVL = 512
	p := optimize(t, q, cat, cfg.MAXVL)
	pp := capeFactPlacement(p)
	want := Reference(q, database)

	x := NewPlaced(NewCastle(cape.New(cfg), cat, DefaultCastleOptions()), newCPUHarness(), cat)
	res, err := x.Run(pp, database)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(res) {
		t.Fatalf("sparse streamed query diverged from reference\nwant:\n%s\ngot:\n%s",
			want.Format(database), res.Format(database))
	}
	st := x.StreamStats()
	wantBatches := int64((lo.Rows() + cfg.MAXVL - 1) / cfg.MAXVL)
	if st.Batches != wantBatches {
		t.Errorf("batches = %d, want every partition pulled = %d", st.Batches, wantBatches)
	}
	if wantBatches < 10 {
		t.Fatalf("corpus too small to force zero-row batches: only %d partitions", wantBatches)
	}
	checkPlacedBooks(t, x, "sparse")
}

// TestStreamingFinalPartialBatch checks the drain edge when the fact table
// does not divide evenly into MAXVL partitions: the final short batch still
// flows and the batch count is the ceiling, not the floor.
func TestStreamingFinalPartialBatch(t *testing.T) {
	database, cat := db(t)
	rows := database.MustTable("lineorder").Rows()
	cfg := smallCape()
	if rows%cfg.MAXVL == 0 {
		// The partial-batch edge needs a remainder; nudge the vector length.
		cfg.MAXVL--
	}
	q := bindQuery(t, database, ssb.Queries()[0].SQL)
	p := optimize(t, q, cat, cfg.MAXVL)
	pp := capeFactPlacement(p)

	x := NewPlaced(NewCastle(cape.New(cfg), cat, DefaultCastleOptions()), newCPUHarness(), cat)
	if _, err := x.Run(pp, database); err != nil {
		t.Fatal(err)
	}
	want := int64((rows + cfg.MAXVL - 1) / cfg.MAXVL)
	if got := x.StreamStats().Batches; got != want {
		t.Errorf("batches = %d, want ceil(%d/%d) = %d", got, rows, cfg.MAXVL, want)
	}
}

// flipCtx reports healthy for the first limit Err checks, then cancelled —
// landing the cancellation between batches rather than at entry.
type flipCtx struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// TestStreamingCancellationBetweenBatches verifies the per-batch context
// checkpoint: a context that flips to cancelled mid-stream aborts the run
// with context.Canceled instead of draining the remaining partitions.
func TestStreamingCancellationBetweenBatches(t *testing.T) {
	database, cat := db(t)
	q := bindQuery(t, database, ssb.Queries()[0].SQL)
	p := optimize(t, q, cat, smallCape().MAXVL)
	pp := capeFactPlacement(p)

	x := newPlacedHarness(cat)
	ctx := &flipCtx{Context: context.Background(), limit: 5}
	_, err := x.RunContext(ctx, pp, database)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from a mid-stream checkpoint", err)
	}
	if ctx.calls.Load() <= ctx.limit {
		t.Fatalf("context checked only %d times; cancellation never landed", ctx.calls.Load())
	}

	// The CPU chunk loop honours the same checkpoint.
	cx := newCPUHarness()
	cctx := &flipCtx{Context: context.Background(), limit: 3}
	if _, err := cx.RunContext(cctx, q, database); !errors.Is(err, context.Canceled) {
		t.Fatalf("cpu err = %v, want context.Canceled", err)
	}
}
