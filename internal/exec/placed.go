package exec

// placed.go executes plans whose operator pipeline spans both devices — the
// paper's §7.2 hybrid case with per-operator granularity. The fused fact
// stage (Scan+Filter+JoinProbe) runs on one device using the same kernels
// the single-device executors run (tileSweep / cpuSweep), each DimBuild runs
// on its placed device (paying an explicit transfer when it feeds the other
// side), and the aggregation tail runs on its placed device over the
// survivor tuples the fact stage ships across.
//
// Every mixed run streams: each fact lane is a BatchSource producing one
// MAXVL-sized batch of survivors per pull, the tail folds each batch the
// moment it lands (peak memory O(K·MAXVL) instead of O(table)), and the
// crossing is double-buffered so interior transfers hide under the next
// batch's compute (batch.go). Nothing in the pipeline holds a shipment back:
// the placement fixes the tail's device before the first batch flows.
//
// Results are bit-identical to the single-device engines: the fact stage
// computes the same survivor set either way, survivors are consumed in
// ascending row order lane by lane, and each aggregation kernel keeps its
// device's exact arithmetic (which agree on every supported shape).

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"castle/internal/baseline"
	"castle/internal/bitvec"
	"castle/internal/cape"
	"castle/internal/fanout"
	"castle/internal/plan"
	"castle/internal/stats"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// Placed executes placed operator pipelines (plan.PlacedPlan) across a CAPE
// engine and a baseline core. Uniform placements delegate to the
// single-device executors; mixed placements run the split pipeline here.
// It is the one run path behind forced, routed and per-operator queries: a
// forced device is a placement pinned to it.
type Placed struct {
	castle *Castle
	cpu    *CPUExec
	cat    *stats.Catalog

	// par mirrors Castle.par: the fact-stage fan-out degree for subsequent
	// runs, atomically retargetable while a run is in flight.
	par atomic.Int32

	tel    *telemetry.Telemetry
	parent *telemetry.Span

	last atomic.Pointer[placedBooks]
}

// placedBooks is the closed accounting of one placed run.
type placedBooks struct {
	capeCycles int64
	cpuCycles  int64
	stream     StreamStats
	parallel   ParallelStats
	breakdown  *telemetry.Breakdown
}

// NewPlaced couples the two single-device executors into a placed-pipeline
// executor. The executors' engines are shared: cycle accounting accumulates
// on them exactly as single-device runs do. Either executor may be nil when
// no placement it runs touches that device: a uniform placement needs only
// its own device's executor.
func NewPlaced(castle *Castle, cpu *CPUExec, cat *stats.Catalog) *Placed {
	return &Placed{castle: castle, cpu: cpu, cat: cat}
}

// NewPlacedFor builds a placed executor over fresh engines — CAPE at
// design point cfg with opts, the baseline core at its default — for the
// devices a run of pp touches. Its fan-out starts at opts.Parallelism.
func NewPlacedFor(pp *plan.PlacedPlan, cfg cape.Config, opts CastleOptions, cat *stats.Catalog) *Placed {
	dev, uniform := pp.Uniform()
	var castle *Castle
	if !uniform || dev == plan.DeviceCAPE {
		castle = NewCastle(cape.New(cfg), cat, opts)
	}
	var cpu *CPUExec
	if !uniform || dev == plan.DeviceCPU {
		cpu = NewCPUExec(baseline.New(baseline.DefaultConfig()))
	}
	x := NewPlaced(castle, cpu, cat)
	x.SetParallelism(opts.Parallelism)
	return x
}

// Engines returns the CAPE engine and the baseline core the executor runs
// on; either is nil when the executor was built without that device.
func (x *Placed) Engines() (eng *cape.Engine, cpu *baseline.CPU) {
	if x.castle != nil {
		eng = x.castle.eng
	}
	if x.cpu != nil {
		cpu = x.cpu.cpu
	}
	return eng, cpu
}

// SetParallelism sets the fact-stage fan-out degree for subsequent runs
// (tiles when the fact stage is on CAPE, cores when on the CPU). The
// aggregation tail of a mixed placement always runs on its device's primary
// engine — it is a pipeline consumer fed by every lane, merged in fixed
// lane order so results stay bit-identical. Safe to call concurrently with
// RunContext; an in-flight run keeps the degree it observed at entry.
func (x *Placed) SetParallelism(k int) { x.par.Store(int32(k)) }

// StreamStats returns the last run's streaming summary: batches produced,
// transfer cycles hidden under compute, and peak resident batch bytes. All
// zero before the first run.
func (x *Placed) StreamStats() StreamStats {
	b := x.last.Load()
	if b == nil {
		return StreamStats{}
	}
	return b.stream
}

// SetTelemetry attaches a telemetry sink and parent span for subsequent
// runs (either may be nil). Not safe to call while a run is in flight.
func (x *Placed) SetTelemetry(tel *telemetry.Telemetry, parent *telemetry.Span) {
	x.tel = tel
	x.parent = parent
	if x.castle != nil {
		x.castle.SetTelemetry(tel, parent)
	}
	if x.cpu != nil {
		x.cpu.SetTelemetry(tel, parent)
	}
}

// Breakdown returns the last run's per-operator cycle breakdown. For mixed
// runs every row carries the device it ran on, device crossings appear as
// explicit "xfer:" rows, and the rows partition the combined two-device
// total exactly. Returns a copy; nil before the first run.
func (x *Placed) Breakdown() *telemetry.Breakdown {
	b := x.last.Load()
	if b == nil {
		return nil
	}
	return b.breakdown.Clone()
}

// Cost returns the simulated seconds and DRAM bytes the executor's engines
// have spent, summed over the devices it was built with.
func (x *Placed) Cost() (seconds float64, bytesMoved int64) {
	if x.castle != nil {
		eng := x.castle.eng
		seconds += eng.Stats().Seconds(eng.Config().ClockHz)
		bytesMoved += eng.Mem().BytesMoved()
	}
	if x.cpu != nil {
		seconds += x.cpu.cpu.Seconds()
		bytesMoved += x.cpu.cpu.Mem().BytesMoved()
	}
	return seconds, bytesMoved
}

// ParallelStats returns the last run's fact-stage fan-out: the owning
// executor's profile for a uniform placement; for a mixed one, the lanes'
// sweep work with ElapsedCycles the run's total and WorkCycles every cycle
// either device spent (transfers hidden under compute and lane cycles
// hidden under the critical lane added back). Zero before the first run.
func (x *Placed) ParallelStats() ParallelStats {
	b := x.last.Load()
	if b == nil {
		return ParallelStats{}
	}
	ps := b.parallel
	ps.TileCycles = append([]int64(nil), ps.TileCycles...)
	ps.TileRows = append([]int64(nil), ps.TileRows...)
	return ps
}

// DeviceCycles returns the last run's per-device cycle split (CAPE, CPU);
// both zero before the first run.
func (x *Placed) DeviceCycles() (int64, int64) {
	b := x.last.Load()
	if b == nil {
		return 0, 0
	}
	return b.capeCycles, b.cpuCycles
}

// Run executes a placed plan. See RunContext.
func (x *Placed) Run(pp *plan.PlacedPlan, db *storage.Database) (*Result, error) {
	return x.RunContext(context.Background(), pp, db)
}

// RunContext executes a placed operator pipeline. Uniform placements
// delegate to the owning single-device executor (identical results,
// identical accounting); mixed placements stream the fact stage on its
// device — morsel-parallel across K lanes when parallelism is set — across
// the device boundary into the aggregation tail on the other device. A
// mixed run's TotalCycles is the sum of both devices' advances minus the
// transfer cycles the double-buffered crossing hid under compute.
func (x *Placed) RunContext(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := x.check(pp); err != nil {
		return nil, err
	}
	q := pp.Phys.Query
	// The tail of a mixed run always runs across the crossing from the fact
	// stage: a placement mixed only through a dimension build still ships
	// its survivors to the other device.
	dev, uniform := pp.Uniform()
	tailDev := dev
	if !uniform {
		tailDev = plan.DeviceCPU
		if pp.FactDevice() == plan.DeviceCPU {
			tailDev = plan.DeviceCAPE
		}
	}
	if tailDev == plan.DeviceCAPE && q.GroupedSumMul() {
		return nil, errors.New("exec: CAPE cannot aggregate SUM(a*b) under GROUP BY")
	}
	if uniform {
		return x.runUniform(ctx, pp, db, dev)
	}

	capeStart, cpuStart := x.castle.eng.TotalCycles(), x.cpu.cpu.Cycles()
	bk := newPlacedBreakdown()
	acc := newGroupAcc(q.Aggs)
	tail := x.newTail(tailDev, q, db, acc)
	stream, err := x.runFactStage(ctx, pp, db, bk, tail)
	if err != nil {
		return nil, err
	}
	if err := x.closeTail(ctx, q, bk, tail, acc); err != nil {
		return nil, err
	}
	x.publish(bk, x.castle.eng.TotalCycles()-capeStart, x.cpu.cpu.Cycles()-cpuStart, stream)
	return acc.result(q), nil
}

// check validates pp and rejects it when it needs an executor this one was
// built without: a mixed placement needs both devices.
func (x *Placed) check(pp *plan.PlacedPlan) error {
	if err := pp.Validate(); err != nil {
		return err
	}
	dev, uniform := pp.Uniform()
	if (x.castle == nil && (!uniform || dev == plan.DeviceCAPE)) || (x.cpu == nil && (!uniform || dev == plan.DeviceCPU)) {
		return errors.New("exec: the placement needs a device this executor was built without")
	}
	return nil
}

// runUniform delegates a single-device placement to the owning executor and
// republishes its books.
func (x *Placed) runUniform(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database, dev plan.Device) (*Result, error) {
	books := &placedBooks{}
	if dev == plan.DeviceCPU {
		start := x.cpu.cpu.Cycles()
		x.cpu.SetParallelism(int(x.par.Load()))
		res, err := x.cpu.RunContext(ctx, pp.Phys.Query, db)
		if err != nil {
			return nil, err
		}
		books.cpuCycles = x.cpu.cpu.Cycles() - start
		books.breakdown, books.stream, books.parallel = x.cpu.Breakdown(), x.cpu.StreamStats(), x.cpu.ParallelStats()
		x.last.Store(books)
		return res, nil
	}
	start := x.castle.eng.TotalCycles()
	x.castle.SetParallelism(int(x.par.Load()))
	res, err := x.castle.RunContext(ctx, pp.Phys, db)
	if err != nil {
		return nil, err
	}
	books.capeCycles = x.castle.eng.TotalCycles() - start
	books.breakdown, books.stream, books.parallel = x.castle.Breakdown(), x.castle.StreamStats(), x.castle.ParallelStats()
	x.last.Store(books)
	return res, nil
}

// placedBreakdown accumulates the operator rows of a mixed run, plus its
// fact stage's fan-out (par; its WorkCycles holds the lane work hidden
// under the critical lane until publish completes it).
type placedBreakdown struct {
	ops     []telemetry.OperatorStats
	perJoin map[string]int64
	par     ParallelStats
}

func newPlacedBreakdown() *placedBreakdown {
	return &placedBreakdown{perJoin: make(map[string]int64), par: ParallelStats{Tiles: 1}}
}

func (b *placedBreakdown) row(op, dev string, cycles, rows int64) {
	b.ops = append(b.ops, telemetry.OperatorStats{Operator: op, Device: dev, Cycles: cycles, Rows: rows})
}

// serialRows emits a single-lane fact stage's rows: the filter, one
// "join:" row per edge, and the lane's export side of the crossing.
func (b *placedBreakdown) serialRows(dev string, p *plan.Physical, filterCycles, factRows, xferCycles, survivors int64) {
	b.row("filter", dev, filterCycles, factRows)
	for _, e := range p.Joins {
		b.row("join:"+e.Dim, dev, b.perJoin[e.Dim], -1)
	}
	b.row("xfer:aggregate", "CAPE+CPU", xferCycles, survivors)
}

// laneRows emits a fanned-out fact stage's per-lane sweep work (export
// charges included) plus the negative "parallel-overlap" credit — only the
// critical lane is elapsed time, as in the single-device executors — and
// folds the lanes' stream accounting: batches and peak bytes sum across the
// concurrent lanes, while the overlap credit only counts what shortens the
// critical path (overlapElapsedCredit).
func (b *placedBreakdown) laneRows(dev string, laneCycles, laneRows []int64, chans []*xferChannel) StreamStats {
	var st StreamStats
	var sum, max int64
	credits := make([]int64, len(chans))
	for i, cy := range laneCycles {
		b.row(fmt.Sprintf("sweep[%d]", i), dev, cy, laneRows[i])
		sum += cy
		if cy > max {
			max = cy
		}
		credits[i] = chans[i].credit
		st.Batches += chans[i].batches
		st.PeakBatchBytes += chans[i].peakBytes
	}
	b.row("parallel-overlap", dev, max-sum, -1)
	b.par = ParallelStats{Tiles: len(laneCycles), TileCycles: laneCycles, TileRows: laneRows, WorkCycles: sum - max}
	st.OverlapCycles = overlapElapsedCredit(laneCycles, credits)
	return st
}

// publish closes a mixed run's books: the operator rows plus an explicit
// "overhead" remainder partition the total exactly. The total is the
// elapsed view — both devices' work minus the transfer cycles that hid
// under the next batch's compute — and the hidden portion appears as an
// explicit negative "xfer-overlap" credit row so the rows still partition
// TotalCycles exactly.
func (x *Placed) publish(bk *placedBreakdown, capeCycles, cpuCycles int64, stream StreamStats) {
	if stream.OverlapCycles != 0 {
		bk.row("xfer-overlap", "CAPE+CPU", -stream.OverlapCycles, -1)
	}
	total := capeCycles + cpuCycles - stream.OverlapCycles
	var covered int64
	for _, o := range bk.ops {
		covered += o.Cycles
	}
	bk.ops = append(bk.ops, telemetry.OperatorStats{
		Operator: "overhead", Device: "CAPE+CPU", Cycles: total - covered, Rows: -1})
	ps := bk.par
	ps.ElapsedCycles = total
	ps.WorkCycles += capeCycles + cpuCycles
	x.last.Store(&placedBooks{
		capeCycles: capeCycles,
		cpuCycles:  cpuCycles,
		stream:     stream,
		parallel:   ps,
		breakdown:  &telemetry.Breakdown{Device: "CAPE+CPU", Operators: bk.ops, TotalCycles: total},
	})
}

// shipTailCols lists the dimension attributes ("dim.attr") a device
// crossing before aggregation must carry, and the width of one shipped
// tuple in 4-byte fields: the row identifier plus those attributes (fact
// columns are re-read by the consumer from shared memory).
func shipTailCols(q *plan.Query) (attrKeys []string, cols int) {
	for _, g := range q.GroupBy {
		if g.Table != q.Fact {
			attrKeys = append(attrKeys, g.Table+"."+g.Column)
		}
	}
	return attrKeys, 1 + len(attrKeys)
}

// ---------------------------------------------------------------------------
// Fact stage: dimension builds on their placed devices, then one batch
// source per lane pulled to exhaustion into the aggregation tail.
// ---------------------------------------------------------------------------

// runFactStage runs pp's fact stage on its placed device into sink and
// returns the stream's accounting: the overlap credit is what a consumer
// folding each batch on arrival hides under the producer's compute.
func (x *Placed) runFactStage(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database,
	bk *placedBreakdown, sink aggTail) (StreamStats, error) {

	if pp.FactDevice() == plan.DeviceCAPE {
		return x.capeFactStage(ctx, pp, db, bk, sink)
	}
	return x.cpuFactStage(ctx, pp, db, bk, sink)
}

// drain pulls src to exhaustion, handing every batch to sink's lane.
func drain(ctx context.Context, src BatchSource, sink aggTail, lane int) error {
	faultPoint(ctx)
	for {
		b, err := src.Next(ctx)
		if err != nil || b == nil {
			return err
		}
		if err := sink.consume(ctx, lane, b); err != nil {
			return err
		}
	}
}

// drainLanes drains every lane's source on its own goroutine, calls done
// with the lane when it stops, and returns the first error in lane order.
// A lane's panic is re-raised on the caller (fanout.Run).
func drainLanes(ctx context.Context, srcs []BatchSource, sink aggTail, done func(lane int)) error {
	errs := make([]error, len(srcs))
	fanout.Run(len(srcs), func(lane int) {
		defer done(lane)
		errs[lane] = drain(ctx, srcs[lane], sink, lane)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// capeFactStage is the CAPE fact stage (the paper's hybrid direction:
// selective fact filtering on the AP): each DimBuild on its placed device —
// CPU-built dimensions ship their values arrays in — then the fused
// Scan+Filter+JoinProbe sweep, one capeFactSource per tile.
func (x *Placed) capeFactStage(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database,
	bk *placedBreakdown, sink aggTail) (StreamStats, error) {

	p := pp.Phys
	q := p.Query
	eng := x.castle.eng
	cpu := x.cpu.cpu
	cfg := eng.Config()
	camCapable := cfg.EnableADL
	if camCapable {
		eng.SetLayout(cape.CAMMode)
	}

	dims := make([]dimSide, len(p.Joins))
	for i, e := range p.Joins {
		if err := ctx.Err(); err != nil {
			return StreamStats{}, err
		}
		dev := pp.DimDevice(e.Dim)
		sp := x.parent.Child("prep:" + e.Dim)
		c0, u0 := eng.TotalCycles(), cpu.Cycles()
		if dev == plan.DeviceCAPE {
			dims[i] = capePrepareDim(eng, x.cat, q, e, db)
		} else {
			j := cpuPrepareDim(cpu, q, e, db)
			dims[i] = dimSide{edge: e, keys: j.keys, attrs: j.vals, totalRows: db.MustTable(e.Dim).Rows()}
		}
		c1, u1 := eng.TotalCycles(), cpu.Cycles()
		bk.row("prep:"+e.Dim, dev.String(), (c1-c0)+(u1-u0), int64(len(dims[i].keys)))
		if dev == plan.DeviceCPU {
			// Ship the values array across: the core streams it out, the AP
			// streams it in, and the CP rebuilds the attribute grouping an
			// on-device prep would have built.
			bytes := int64(4 * len(dims[i].keys) * (1 + len(e.NeedAttrs)))
			cpu.ChargeStreamWrite(0, bytes)
			eng.ChargeStreamRead(bytes)
			dims[i].buildGroups(e)
			if len(e.NeedAttrs) > 0 {
				eng.Scalar(int64(4 * len(dims[i].keys)))
			}
			c2, u2 := eng.TotalCycles(), cpu.Cycles()
			bk.row("xfer:"+e.Dim, "CAPE+CPU", (c2-c1)+(u2-u1), int64(len(dims[i].keys)))
		}
		sp.SetInt("rows_out", int64(len(dims[i].keys)))
		sp.End()
	}

	factRows := db.MustTable(q.Fact).Rows()
	maxvl := cfg.MAXVL
	parts := (factRows + maxvl - 1) / maxvl
	k := int(x.par.Load())
	if k < 1 || parts < 1 {
		k = 1
	}
	if k > parts && parts > 0 {
		k = parts
	}
	attrKeys, shipCols := shipTailCols(q)
	sink.open(k)

	sweep := x.parent.Child("fact-sweep")
	sweepStart := eng.TotalCycles()
	source := func(s *tileSweep, lane int) *capeFactSource {
		return &capeFactSource{s: s, p: p, db: db, dims: dims,
			attrKeys: attrKeys, shipCols: shipCols, camCapable: camCapable,
			factRows: factRows, maxvl: maxvl, next: lane, stride: k, ch: &xferChannel{}}
	}
	var stream StreamStats
	if k == 1 {
		src := source(&tileSweep{cat: x.cat, opts: x.castle.opts, eng: eng, perJoin: bk.perJoin, span: sweep}, 0)
		if err := drain(ctx, src, sink, 0); err != nil {
			return StreamStats{}, err
		}
		bk.serialRows("CAPE", p, src.s.filterCycles, int64(factRows), src.ch.xferCycles, src.rowsOut)
		stream = src.ch.stats()
	} else {
		group := eng.Fork(k)
		srcs := make([]BatchSource, k)
		lanes := make([]*capeFactSource, k)
		for i, t := range group.Tiles() {
			if x.tel != nil {
				AttachEngineTelemetry(t, x.tel)
			}
			lanes[i] = source(&tileSweep{cat: x.cat, opts: x.castle.opts, eng: t,
				perJoin: make(map[string]int64, len(p.Joins)),
				span:    sweep.Child(fmt.Sprintf("tile%d", i))}, i)
			srcs[i] = lanes[i]
		}
		if err := drainLanes(ctx, srcs, sink, func(i int) { lanes[i].s.span.End() }); err != nil {
			return StreamStats{}, err
		}
		// Elapsed advances by the critical tile; per-tile work (including
		// each tile's export charges) shows as sweep rows.
		tileCycles := group.Merge()
		laneRows := make([]int64, k)
		chans := make([]*xferChannel, k)
		for i, l := range lanes {
			laneRows[i], chans[i] = l.rowsIn, l.ch
			for d, cy := range l.s.perJoin {
				bk.perJoin[d] += cy
			}
		}
		stream = bk.laneRows("CAPE", tileCycles, laneRows, chans)
	}
	sweep.SetInt("cycles", eng.TotalCycles()-sweepStart)
	sweep.SetInt("tiles", int64(k))
	sweep.End()
	return stream, nil
}

// capeFactSource is the CAPE-side batch producer for one lane: each Next
// runs the fused Scan+Filter+JoinProbe kernels over the lane's next MAXVL
// partition, exports the survivors as a batch, and records the (compute,
// transfer) split into the lane's double-buffered channel.
type capeFactSource struct {
	s          *tileSweep
	p          *plan.Physical
	db         *storage.Database
	dims       []dimSide
	attrKeys   []string
	shipCols   int
	camCapable bool

	factRows int
	maxvl    int
	next     int // partition index of the next batch
	stride   int // partition stride between this lane's batches

	ch      *xferChannel
	rowsIn  int64 // fact rows swept
	rowsOut int64 // survivors shipped
}

func (src *capeFactSource) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	base := src.next * src.maxvl
	if src.maxvl <= 0 || base >= src.factRows {
		return nil, nil
	}
	vl := src.factRows - base
	if vl > src.maxvl {
		vl = src.maxvl
	}
	s := src.s
	c0 := s.eng.TotalCycles()
	rowMask, _, attrRegs, _, err := s.runFilterJoins(ctx, src.p, src.db, src.dims, base, vl)
	if err != nil {
		return nil, err
	}
	compute := s.eng.TotalCycles() - c0
	b := NewBatch(base, src.attrKeys)
	e0 := s.eng.TotalCycles()
	exportSurvivors(s.eng, b, rowMask, base, src.attrKeys, attrRegs, src.shipCols)
	xfer := s.eng.TotalCycles() - e0
	if src.camCapable {
		s.eng.SetLayout(cape.CAMMode)
	}
	src.ch.record(compute, xfer, b.ShipBytes(src.shipCols))
	src.rowsIn += int64(vl)
	src.rowsOut += int64(b.Len())
	src.next += src.stride
	return b, nil
}

// exportSurvivors gathers one partition's surviving rows into the lane's
// batch and bills the CAPE side of the crossing: a CP gather loop over the
// survivors plus the streamed tuple bytes.
func exportSurvivors(eng *cape.Engine, b *Batch, rowMask *bitvec.Vector, base int,
	attrKeys []string, attrRegs map[string]cape.VReg, shipCols int) {

	attrData := make([][]uint32, len(attrKeys))
	for ai, key := range attrKeys {
		r, ok := attrRegs[key]
		if !ok {
			panic("exec: shipped attribute " + key + " was not materialized by any join")
		}
		attrData[ai] = eng.View(r)
	}
	var n int64
	for i := rowMask.First(); i != -1; i = rowMask.NextAfter(i) {
		b.Rows = append(b.Rows, base+i)
		for ai, key := range attrKeys {
			b.Attrs[key] = append(b.Attrs[key], attrData[ai][i])
		}
		n++
	}
	eng.Scalar(2 * n)
	eng.ChargeStreamWrite(4 * n * int64(shipCols))
}

// cpuFactStage is the reverse crossing's fact stage (rarely chosen by the
// cost model but fully supported, and exercised by the forced-placement
// differential columns): each DimBuild on its placed device — CAPE-built
// dimensions ship out — then the filter+probe pass sweeps, one
// cpuFactSource per core.
func (x *Placed) cpuFactStage(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database,
	bk *placedBreakdown, sink aggTail) (StreamStats, error) {

	p := pp.Phys
	q := p.Query
	eng := x.castle.eng
	cpu := x.cpu.cpu
	camCapable := eng.Config().EnableADL

	joins := make([]dimJoin, 0, len(p.Joins))
	for _, e := range p.Joins {
		if err := ctx.Err(); err != nil {
			return StreamStats{}, err
		}
		dev := pp.DimDevice(e.Dim)
		sp := x.parent.Child("prep:" + e.Dim)
		c0, u0 := eng.TotalCycles(), cpu.Cycles()
		var j dimJoin
		if dev == plan.DeviceCPU {
			j = cpuPrepareDim(cpu, q, e, db)
		} else {
			if camCapable {
				eng.SetLayout(cape.CAMMode)
			}
			d := capePrepareDim(eng, x.cat, q, e, db)
			j = dimJoin{edge: e, keys: d.keys, vals: d.attrs, fraction: 1}
			if d.totalRows > 0 {
				j.fraction = float64(len(d.keys)) / float64(d.totalRows)
			}
		}
		c1, u1 := eng.TotalCycles(), cpu.Cycles()
		bk.row("prep:"+e.Dim, dev.String(), (c1-c0)+(u1-u0), int64(len(j.keys)))
		if dev == plan.DeviceCAPE {
			bytes := int64(4 * len(j.keys) * (1 + len(e.NeedAttrs)))
			eng.ChargeStreamWrite(bytes)
			cpu.ChargeStream(0, bytes)
			c2, u2 := eng.TotalCycles(), cpu.Cycles()
			bk.row("xfer:"+e.Dim, "CAPE+CPU", (c2-c1)+(u2-u1), int64(len(j.keys)))
		}
		joins = append(joins, j)
		sp.SetInt("rows_out", int64(len(j.keys)))
		sp.End()
	}
	// Probe the most selective dimension first, exactly as CPUExec does.
	sort.SliceStable(joins, func(i, j int) bool { return joins[i].fraction < joins[j].fraction })

	rows := db.MustTable(q.Fact).Rows()
	k := int(x.par.Load())
	if k > rows {
		k = rows
	}
	if k < 1 {
		k = 1
	}
	attrKeys, shipCols := shipTailCols(q)
	maxvl := eng.Config().MAXVL
	sink.open(k)

	sweep := x.parent.Child("fact-sweep")
	sweepStart := cpu.Cycles()
	// A single lane builds each table on first use, inside its "join:" row;
	// forked cores share the tables read-only, so they build up front on
	// the primary core as explicit "build:" rows.
	tables := make([]joinTable, len(joins))
	if k > 1 {
		var err error
		if tables, err = x.buildShipTables(ctx, cpu, joins, bk); err != nil {
			return StreamStats{}, err
		}
	}
	source := func(s *cpuSweep, base, end int) *cpuFactSource {
		return &cpuFactSource{s: s, q: q, db: db, joins: joins, tables: tables,
			attrKeys: attrKeys, shipCols: shipCols, base: base, end: end, step: maxvl, ch: &xferChannel{}}
	}
	var stream StreamStats
	if k == 1 {
		src := source(&cpuSweep{cpu: cpu, perJoin: bk.perJoin, span: sweep}, 0, rows)
		if err := drain(ctx, src, sink, 0); err != nil {
			return StreamStats{}, err
		}
		bk.serialRows("CPU", p, src.s.filterCycles, int64(rows), src.ch.xferCycles, src.rowsOut)
		stream = src.ch.stats()
	} else {
		cores := cpu.Fork(k)
		srcs := make([]BatchSource, k)
		lanes := make([]*cpuFactSource, k)
		for i, core := range cores {
			if x.tel != nil {
				AttachCPUTelemetry(core, x.tel)
			}
			lanes[i] = source(&cpuSweep{cpu: core,
				perJoin: make(map[string]int64, len(joins)),
				span:    sweep.Child(fmt.Sprintf("core%d", i))}, i*rows/k, (i+1)*rows/k)
			srcs[i] = lanes[i]
		}
		if err := drainLanes(ctx, srcs, sink, func(i int) { lanes[i].s.span.End() }); err != nil {
			return StreamStats{}, err
		}
		// The primary core absorbs the critical core's elapsed time (raw
		// cycles, so sub-cycle differences cannot flip the choice) and every
		// core's traffic.
		var maxRaw float64
		laneCycles := make([]int64, k)
		laneRows := make([]int64, k)
		chans := make([]*xferChannel, k)
		for i, l := range lanes {
			laneCycles[i], laneRows[i], chans[i] = l.s.cpu.Cycles(), l.rowsIn, l.ch
			if raw := l.s.cpu.RawCycles(); raw > maxRaw {
				maxRaw = raw
			}
			for d, cy := range l.s.perJoin {
				bk.perJoin[d] += cy
			}
		}
		stream = bk.laneRows("CPU", laneCycles, laneRows, chans)
		cpu.AbsorbElapsed(maxRaw)
		for _, core := range cores {
			cpu.AbsorbTraffic(core)
		}
	}
	sweep.SetInt("cycles", cpu.Cycles()-sweepStart)
	sweep.SetInt("cores", int64(k))
	sweep.End()
	return stream, nil
}

// buildShipTables builds the probe-side hash tables once on the primary
// core, emitting a "build:" row per dimension. Probe cycles accumulate
// separately (per-lane perJoin), so build rows never double-count.
func (x *Placed) buildShipTables(ctx context.Context, cpu *baseline.CPU, joins []dimJoin,
	bk *placedBreakdown) ([]joinTable, error) {

	tables := make([]joinTable, len(joins))
	for ji, j := range joins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b0 := cpu.Cycles()
		tables[ji] = buildJoinTable(cpu, j)
		bk.row("build:"+j.edge.Dim, "CPU", cpu.Cycles()-b0, int64(len(j.keys)))
	}
	return tables, nil
}

// cpuFactSource is the CPU-side batch producer for one lane: each Next runs the filter+probe pass over the lane's next
// MAXVL-row chunk, gathers the survivors as a batch, and records the
// (compute, transfer) split into the lane's double-buffered channel.
type cpuFactSource struct {
	s        *cpuSweep
	q        *plan.Query
	db       *storage.Database
	joins    []dimJoin
	tables   []joinTable
	attrKeys []string
	shipCols int

	base, end, step int

	ch      *xferChannel
	rowsIn  int64 // fact rows swept
	rowsOut int64 // survivors shipped
}

func (src *cpuFactSource) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if src.step <= 0 || src.base >= src.end {
		return nil, nil
	}
	lo, hi := src.base, src.base+src.step
	if hi > src.end {
		hi = src.end
	}
	core := src.s.cpu
	c0 := core.Cycles()
	sel, attrCols, err := src.s.runFilterJoins(ctx, src.q, src.db, src.joins, src.tables, lo, hi)
	if err != nil {
		return nil, err
	}
	compute := core.Cycles() - c0
	x0 := core.Cycles()
	b := gatherCPUSurvivors(core, sel, attrCols, src.attrKeys, lo, hi, src.shipCols)
	xfer := core.Cycles() - x0
	src.ch.record(compute, xfer, b.ShipBytes(src.shipCols))
	src.rowsIn += int64(hi - lo)
	src.rowsOut += int64(b.Len())
	src.base = hi
	return b, nil
}

// gatherCPUSurvivors collects a lane's surviving rows (and the tail's
// dimension attributes) into a batch and bills the CPU side of the
// crossing: a gather loop plus the streamed tuple bytes.
func gatherCPUSurvivors(cpu *baseline.CPU, sel *bitvec.Vector, attrCols map[string][]uint32,
	attrKeys []string, base, end, shipCols int) *Batch {

	b := NewBatch(base, attrKeys)
	collect := func(i int) { // i is range-local
		b.Rows = append(b.Rows, base+i)
		for _, key := range attrKeys {
			col := attrCols[key]
			if col == nil {
				panic("exec: shipped attribute " + key + " was not materialized by any join")
			}
			b.Attrs[key] = append(b.Attrs[key], col[i])
		}
	}
	if sel == nil {
		for i := 0; i < end-base; i++ {
			collect(i)
		}
	} else {
		for i := sel.First(); i != -1; i = sel.NextAfter(i) {
			collect(i)
		}
	}
	n := len(b.Rows)
	cpu.ChargeStreamWrite(float64(2*n), int64(4*n*shipCols))
	return b
}

// ---------------------------------------------------------------------------
// Aggregation tails: fold each survivor batch as it lands.
// ---------------------------------------------------------------------------

// aggTail is a mixed run's aggregation tail on the device across the
// crossing from the fact stage: the sink of the fact stage's survivor
// batches.
type aggTail interface {
	// open is called once, after the dimension builds and before the sweep,
	// with the lane count.
	open(k int)
	// consume is called for every batch, from its lane's goroutine, in the
	// lane's partition order (distinct lanes run concurrently).
	consume(ctx context.Context, lane int, b *Batch) error
	// finish closes the tail after the last batch — lanes merge in fixed
	// order and any deferred charge is paid — and returns the tail's cycles
	// on its device and the survivor tuples it consumed.
	finish() (cycles, matched int64)
	device() plan.Device
}

// newTail returns the aggregation tail for dev folding into acc.
func (x *Placed) newTail(dev plan.Device, q *plan.Query, db *storage.Database, acc *groupAcc) aggTail {
	fact := db.MustTable(q.Fact)
	if dev == plan.DeviceCPU {
		_, shipCols := shipTailCols(q)
		return &cpuTail{cpu: x.cpu.cpu, q: q, fact: fact, acc: acc, shipCols: shipCols}
	}
	return &capeTail{x: x, q: q, fact: fact, acc: acc}
}

// closeTail finishes the aggregation tail after the fact stage's last
// batch, adds the grand-aggregate zero row when nothing survived, and
// emits the "aggregate" row on the tail's device.
func (x *Placed) closeTail(ctx context.Context, q *plan.Query, bk *placedBreakdown, tail aggTail, acc *groupAcc) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	spa := x.parent.Child("aggregate")
	cycles, matched := tail.finish()
	if len(q.GroupBy) == 0 && len(acc.order) == 0 {
		acc.add(nil, make([]int64, len(q.Aggs)), 0)
	}
	bk.row("aggregate", tail.device().String(), cycles, int64(len(acc.order)))
	spa.SetInt("cycles", cycles)
	spa.SetInt("rows", matched)
	spa.SetInt("groups", int64(len(acc.order)))
	spa.End()
	return nil
}

// laneAcc returns the accumulator one of k tail lanes folds into: the run's
// own when there is a single lane, otherwise a private partial that finish
// merges in lane order.
func laneAcc(acc *groupAcc, q *plan.Query, k int) *groupAcc {
	if k == 1 {
		return acc
	}
	return newGroupAcc(q.Aggs)
}

// cpuTail is the CPU aggregation tail. Each lane folds its batches into its
// accumulator as they land — pure bookkeeping — and finish pays the
// hash-aggregation charge once, in bulk, from the merged totals, so the CPU
// cycles never depend on how the stream was cut into batches.
type cpuTail struct {
	cpu      *baseline.CPU
	q        *plan.Query
	fact     *storage.Table
	acc      *groupAcc
	shipCols int
	lanes    []*cpuAggConsumer
}

func (t *cpuTail) device() plan.Device { return plan.DeviceCPU }

func (t *cpuTail) open(k int) {
	t.lanes = make([]*cpuAggConsumer, k)
	for i := range t.lanes {
		t.lanes[i] = newCPUAggConsumer(t.q, t.fact, laneAcc(t.acc, t.q, k))
	}
}

func (t *cpuTail) consume(ctx context.Context, lane int, b *Batch) error {
	return t.lanes[lane].consume(ctx, b)
}

func (t *cpuTail) finish() (int64, int64) {
	a0 := t.cpu.Cycles()
	var matched int64
	for _, l := range t.lanes {
		if l.acc != t.acc {
			t.acc.merge(l.acc)
		}
		matched += l.matched
	}
	t.lanes[0].charge(t.cpu, t.shipCols, t.acc, matched)
	return t.cpu.Cycles() - a0, matched
}

// capeTail is the CAPE aggregation tail: each batch loads into the CSB in
// MAXVL chunks as gathered columns (the loads' stream reads bill the
// transfer's read side) and Algorithm 2 runs over each chunk with the exact
// on-device billing. Lanes share the primary engine, so they serialize
// chunk consumption under a mutex into their own accumulators, merged in
// lane order by finish: the engine's additive charges and the results stay
// deterministic.
type capeTail struct {
	x    *Placed
	q    *plan.Query
	fact *storage.Table
	acc  *groupAcc

	mu      sync.Mutex
	lanes   []*tileSweep
	cycles  int64
	matched int64
}

func (t *capeTail) device() plan.Device { return plan.DeviceCAPE }

// open pins the aggregation layout before the first batch: a CPU-side
// producer never touches the engine between batches.
func (t *capeTail) open(k int) {
	eng := t.x.castle.eng
	a0 := eng.TotalCycles()
	t.x.setAggLayout(t.q, eng.Config().EnableADL)
	t.cycles += eng.TotalCycles() - a0
	t.lanes = make([]*tileSweep, k)
	for i := range t.lanes {
		t.lanes[i] = &tileSweep{cat: t.x.cat, opts: t.x.castle.opts, eng: eng, acc: laneAcc(t.acc, t.q, k)}
	}
}

func (t *capeTail) consume(ctx context.Context, lane int, b *Batch) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	eng := t.x.castle.eng
	maxvl := eng.Config().MAXVL
	for lo := 0; lo < b.Len(); lo += maxvl {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := lo + maxvl
		if hi > b.Len() {
			hi = b.Len()
		}
		a0 := eng.TotalCycles()
		t.x.capeAggregateChunk(t.q, t.fact, b, lo, hi, t.lanes[lane])
		t.cycles += eng.TotalCycles() - a0
	}
	t.matched += int64(b.Len())
	return nil
}

func (t *capeTail) finish() (int64, int64) {
	for _, l := range t.lanes {
		if l.acc != t.acc {
			t.acc.merge(l.acc)
		}
	}
	return t.cycles, t.matched
}

// cpuAggConsumer folds shipped survivor tuples into a groupAcc with the
// CPU's exact aggregation semantics. Consumption is pure bookkeeping — the
// hash-aggregation charge model is paid once, in bulk, by charge, from
// totals that are identical however the stream was cut into batches.
type cpuAggConsumer struct {
	q    *plan.Query
	fact *storage.Table
	acc  *groupAcc

	valueOf       []func(row int) int64
	distinctSlots []distinctSlot
	keySrc        []func(b *Batch, si, row int) uint32
	aggCols       int
	factGroupCols int

	keys    []uint32
	aggs    []int64
	matched int64
}

type distinctSlot struct {
	slot int
	col  []uint32
}

func newCPUAggConsumer(q *plan.Query, fact *storage.Table, acc *groupAcc) *cpuAggConsumer {
	cc := &cpuAggConsumer{q: q, fact: fact, acc: acc,
		keys: make([]uint32, len(q.GroupBy)), aggs: make([]int64, len(q.Aggs))}
	cc.valueOf = make([]func(row int) int64, len(q.Aggs))
	for ai, a := range q.Aggs {
		cc.aggCols++
		switch a.Kind {
		case plan.AggSumCol, plan.AggMin, plan.AggMax, plan.AggAvg:
			col := fact.MustColumn(a.A).Data
			cc.valueOf[ai] = func(r int) int64 { return int64(col[r]) }
		case plan.AggSumMul:
			ca, cb := fact.MustColumn(a.A).Data, fact.MustColumn(a.B).Data
			cc.valueOf[ai] = func(r int) int64 { return int64(ca[r]) * int64(cb[r]) }
			cc.aggCols++
		case plan.AggSumSub:
			ca, cb := fact.MustColumn(a.A).Data, fact.MustColumn(a.B).Data
			cc.valueOf[ai] = func(r int) int64 { return int64(ca[r]) - int64(cb[r]) }
			cc.aggCols++
		case plan.AggCount:
			cc.valueOf[ai] = func(r int) int64 { return 1 }
		case plan.AggCountDistinct:
			col := fact.MustColumn(a.A).Data
			cc.valueOf[ai] = func(r int) int64 { return 0 }
			cc.distinctSlots = append(cc.distinctSlots, distinctSlot{slot: ai, col: col})
		}
	}
	cc.keySrc = make([]func(b *Batch, si, row int) uint32, len(q.GroupBy))
	for gi, g := range q.GroupBy {
		if g.Table == q.Fact {
			col := fact.MustColumn(g.Column).Data
			cc.keySrc[gi] = func(_ *Batch, _ int, r int) uint32 { return col[r] }
			cc.factGroupCols++
			continue
		}
		key := g.Table + "." + g.Column
		cc.keySrc[gi] = func(b *Batch, si int, _ int) uint32 { return b.Attrs[key][si] }
	}
	return cc
}

// consume folds one batch into the accumulator, checkpointing ctx every
// cancelCheckRows matched rows.
func (cc *cpuAggConsumer) consume(ctx context.Context, b *Batch) error {
	for si, row := range b.Rows {
		if cc.matched%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for gi := range cc.keySrc {
			cc.keys[gi] = cc.keySrc[gi](b, si, row)
		}
		for ai := range cc.valueOf {
			cc.aggs[ai] = cc.valueOf[ai](row)
		}
		cc.acc.add(cc.keys, cc.aggs, 1)
		for _, d := range cc.distinctSlots {
			cc.acc.addDistinct(cc.keys, d.slot, []uint32{d.col[row]})
		}
		cc.matched++
	}
	return nil
}

// charge pays the bulk hash-aggregation charge model: the shipped tuples
// stream in, each row gathers its fact fields and pays the hash-aggregation
// constants (cpuSweep.runAggregate with the full-column stream replaced by
// the tuple + gathered fields). acc and matched are passed explicitly so a
// fanned-out run can charge once over its merged accumulator.
func (cc *cpuAggConsumer) charge(cpu *baseline.CPU, shipCols int, acc *groupAcc, matched int64) {
	touchedBytes := matched * 4 * int64(shipCols+cc.aggCols+cc.factGroupCols)
	k := cpu.Config().Kernels
	if len(cc.q.GroupBy) == 0 {
		cpu.ChargeStream(float64(matched)*0.4, touchedBytes)
	} else {
		cpu.ChargeStream(float64(matched)*(k.HashCyclesPerKey+k.AggUpdateCyclesPerRow), touchedBytes)
		cpu.ChargeRandomAccesses(matched, int64(len(acc.order))*32)
	}
	if len(cc.distinctSlots) > 0 {
		var setEntries int64
		for _, r := range acc.rows {
			for _, set := range r.sets {
				setEntries += int64(len(set))
			}
		}
		for range cc.distinctSlots {
			cpu.ChargeCompute(float64(matched) * k.HashCyclesPerKey)
			cpu.ChargeRandomAccesses(matched, setEntries*16)
		}
	}
}

// setAggLayout pins the CSB layout the CAPE aggregation tail needs:
// GP mode when a vector-vector arithmetic aggregate must run, CAM mode
// otherwise. Grouped vv-arithmetic is outside the supported shape.
func (x *Placed) setAggLayout(q *plan.Query, camCapable bool) {
	needGPArith := false
	for _, a := range q.Aggs {
		if a.Kind == plan.AggSumMul {
			needGPArith = true
		}
	}
	if needGPArith && len(q.GroupBy) > 0 {
		panic("exec: GROUP BY with vv-arithmetic aggregates is outside SSB's shape")
	}
	if camCapable {
		if needGPArith {
			x.castle.eng.SetLayout(cape.GPMode)
		} else {
			x.castle.eng.SetLayout(cape.CAMMode)
		}
	}
}

// capeAggregateChunk loads one chunk of shipped tuples into the CSB and
// aggregates it: gathered fact columns and shipped attributes become CSB
// vectors (loads bill the stream reads), then the scalar reductions or the
// fact sweep's Algorithm 2 group loop run with on-device billing.
func (x *Placed) capeAggregateChunk(q *plan.Query, fact *storage.Table,
	ship *Batch, lo, hi int, ts *tileSweep) {

	eng := x.castle.eng
	acc := ts.acc
	n := hi - lo
	eng.SetVL(n)
	regs := newRegAlloc(eng.Config().NumVRegs)

	gatherFact := func(name string) []uint32 {
		col := fact.MustColumn(name).Data
		out := make([]uint32, n)
		for i, row := range ship.Rows[lo:hi] {
			out[i] = col[row]
		}
		return out
	}
	loaded := make(map[string]cape.VReg)
	loadGathered := func(key string, data []uint32, table, col string) cape.VReg {
		if r, ok := loaded[key]; ok {
			return r
		}
		r := regs.fresh()
		eng.Load(r, data, colWidth(x.cat, table, col))
		loaded[key] = r
		return r
	}
	loadFact := func(name string) cape.VReg {
		if r, ok := loaded[name]; ok {
			return r
		}
		return loadGathered(name, gatherFact(name), q.Fact, name)
	}

	rowMask := eng.MaskInit(true)

	// --- Scalar tail (no GROUP BY): predicated reductions per aggregate.
	if len(q.GroupBy) == 0 {
		rows := int64(eng.MPopc(rowMask))
		if rows == 0 {
			return
		}
		vals := make([]int64, len(q.Aggs))
		for i, a := range q.Aggs {
			switch a.Kind {
			case plan.AggSumCol, plan.AggAvg:
				vals[i] = eng.RedSum(loadFact(a.A), rowMask)
			case plan.AggSumMul:
				ra, rb := loadFact(a.A), loadFact(a.B)
				tmp := regs.fresh()
				eng.MulVV(tmp, ra, rb)
				vals[i] = eng.RedSum(tmp, rowMask)
			case plan.AggSumSub:
				vals[i] = eng.RedSum(loadFact(a.A), rowMask) - eng.RedSum(loadFact(a.B), rowMask)
				eng.Scalar(1)
			case plan.AggCount:
				vals[i] = rows
			case plan.AggMin:
				v, _ := eng.RedMin(loadFact(a.A), rowMask)
				vals[i] = int64(v)
			case plan.AggMax:
				v, _ := eng.RedMax(loadFact(a.A), rowMask)
				vals[i] = int64(v)
			case plan.AggCountDistinct:
				data := gatherFact(a.A)
				r := loadGathered(a.A, data, q.Fact, a.A)
				values := distinctUnder(data, 0, rowMask)
				ts.chargeDistinctLoop(int64(len(values)), eng.RegWidth(r))
				acc.addDistinct(nil, i, values)
			}
			eng.Scalar(4)
		}
		acc.add(nil, vals, rows)
		return
	}

	// --- Grouped tail: Algorithm 2 over the chunk.
	groupRegs := make([]cape.VReg, len(q.GroupBy))
	for i, g := range q.GroupBy {
		if g.Table == q.Fact {
			groupRegs[i] = loadFact(g.Column)
			continue
		}
		key := g.Table + "." + g.Column
		data := ship.Attrs[key][lo:hi]
		groupRegs[i] = loadGathered(key, data, g.Table, g.Column)
	}
	aggRegs := make([][2]cape.VReg, len(q.Aggs))
	distinct := make([][]uint32, len(q.Aggs))
	for i, a := range q.Aggs {
		if a.Kind == plan.AggCountDistinct {
			distinct[i] = gatherFact(a.A)
			aggRegs[i][0] = loadGathered(a.A, distinct[i], q.Fact, a.A)
			continue
		}
		if a.Kind != plan.AggCount {
			aggRegs[i][0] = loadFact(a.A)
		}
		if a.Kind == plan.AggSumSub {
			aggRegs[i][1] = loadFact(a.B)
		}
	}
	ts.groupLoop(q, groupRegs, aggRegs, distinct, rowMask, regs)
}
