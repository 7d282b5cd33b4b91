package server

// coalesce.go is the scan-sharing admission layer: requests arriving within
// a small window of each other that sweep the same fact table on the same
// routed device are held briefly and flushed as one fused group — one
// admission-queue slot, one device lease, one shared fact sweep serving
// every member through DB.QueryGroupContext. Identical-fingerprint members
// share a single execution's result. The window wait lands in each
// member's queue phase, so the four-phase lifecycle attribution still
// telescopes exactly per request.

import (
	"context"
	"sync"
	"time"

	"castle"
)

// coalescer holds the pending windows, keyed by (fact table, routed
// device). The first request of a key opens a window; companions join until
// the window timer fires or the group reaches the size cap.
type coalescer struct {
	s       *Server
	window  time.Duration
	maxSize int

	mu      sync.Mutex
	stopped bool
	pending map[string]*pendingGroup
}

type pendingGroup struct {
	key     string
	members []*task
	timer   *time.Timer
	flushed bool
}

func newCoalescer(s *Server, window time.Duration, maxSize int) *coalescer {
	return &coalescer{s: s, window: window, maxSize: maxSize,
		pending: make(map[string]*pendingGroup)}
}

// add places t into its (fact, device) window, opening one if needed. A
// group reaching the size cap flushes immediately. Returns false when the
// coalescer has been stopped (server closing).
func (c *coalescer) add(t *task) bool {
	key := t.fact + "|" + t.groupDev.String()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return false
	}
	g := c.pending[key]
	if g == nil {
		g = &pendingGroup{key: key}
		c.pending[key] = g
		g.timer = time.AfterFunc(c.window, func() { c.flush(g) })
	}
	g.members = append(g.members, t)
	if len(g.members) >= c.maxSize {
		c.flushLocked(g)
	}
	return true
}

func (c *coalescer) flush(g *pendingGroup) {
	c.mu.Lock()
	c.flushLocked(g)
	c.mu.Unlock()
}

// flushLocked hands a window's members to the admission queue as one group
// task (one slot). The non-blocking enqueue happens under the coalescer
// lock so stopAndFlush cannot return while a timer-driven flush is
// mid-send — the queue is never closed under an in-progress send.
func (c *coalescer) flushLocked(g *pendingGroup) {
	if g.flushed {
		return
	}
	g.flushed = true
	if c.pending[g.key] == g {
		delete(c.pending, g.key)
	}
	if g.timer != nil {
		g.timer.Stop()
	}
	now := time.Now()
	for _, m := range g.members {
		c.s.coalWait.Observe(float64(now.Sub(m.enqueued).Microseconds()))
	}
	c.s.enqueueGroup(g.members)
}

// stopAndFlush flushes every pending window and prevents any future add or
// timer flush from touching the server's queue. Called by Close before the
// queue is closed, so admitted window members still run to completion.
func (c *coalescer) stopAndFlush() {
	c.mu.Lock()
	c.stopped = true
	for _, g := range c.pending {
		c.flushLocked(g)
	}
	c.mu.Unlock()
}

// tryCoalesce routes an eligible request through the coalescing window.
// The third return reports whether the request was handled here; false
// means the caller should run the ordinary solo admission path.
// Per-operator placements keep their solo path (fused execution runs
// whole-query on the routed device), and statements that fail
// classification fall through so the solo path surfaces the error with its
// usual mapping.
func (s *Server) tryCoalesce(t *task, start time.Time) (*Response, error, bool) {
	if s.coal == nil || (t.device == castle.DeviceHybrid && t.placement == castle.PlacementPerOperator) {
		return nil, nil, false
	}
	opt := s.cfg.Options
	opt.Device = t.device
	opt.Telemetry = s.tel
	if t.req.NoCache {
		opt.DisablePlanCache = true
	}
	class, err := s.db.ScanClassOf(t.req.SQL, opt)
	if err != nil {
		return nil, nil, false
	}
	t.fact, t.fp, t.groupDev = class.Fact, class.Fingerprint, class.Device

	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, ErrClosed, true
	}
	if !s.coal.add(t) {
		return nil, ErrClosed, true
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	select {
	case r := <-t.done:
		if r.resp != nil {
			s.finishTimings(t, r.resp, start)
		}
		return r.resp, r.err, true
	case <-t.ctx.Done():
		return nil, t.ctx.Err(), true
	}
}

// enqueueGroup admits a flushed window into the queue: one slot whether the
// group holds one member or the cap. A full queue sheds every member.
func (s *Server) enqueueGroup(members []*task) {
	gt := members[0]
	if len(members) > 1 {
		gt = &task{members: members, enqueued: members[0].enqueued}
	}
	select {
	case s.queue <- gt:
		s.depth.Add(1)
	default:
		for _, m := range members {
			s.shedFlush.Inc()
			m.done <- taskResult{err: ErrOverloaded}
		}
	}
}

// runGroup executes a fused group task on a worker: one device lease for
// the whole group, one shared-sweep execution, and per-member responses.
// Every member's lifecycle timestamps are stamped from the shared pickup,
// lease and exec instants, so each member's queue/lease/exec/serialize
// phases still telescope to its own wall time exactly (the window wait is
// part of the queue phase).
func (s *Server) runGroup(gt *task) {
	members := gt.members
	live := make([]*task, 0, len(members))
	var latest time.Time
	for _, m := range members {
		m.pickup = gt.pickup
		s.queueWait.Observe(float64(gt.pickup.Sub(m.enqueued).Microseconds()))
		if err := m.ctx.Err(); err != nil {
			m.done <- taskResult{err: err}
			continue
		}
		if dl, ok := m.ctx.Deadline(); ok && dl.After(latest) {
			latest = dl
		}
		live = append(live, m)
	}
	if len(live) == 0 {
		return
	}
	for i, r := range s.execGroup(live, latest) {
		live[i].done <- r
	}
}

// execGroup runs the live members of a fused group under one lease and
// returns each member's result. A panic in the execution answers every
// member with ErrInternal.
func (s *Server) execGroup(live []*task, latest time.Time) (results []taskResult) {
	fail := func(err error) []taskResult {
		results := make([]taskResult, len(live))
		for i := range results {
			results[i].err = err
		}
		return results
	}
	defer func() {
		if r := recover(); r != nil {
			results = fail(s.recovered(r, live...))
		}
	}()

	// One context serves the fused execution, bounded by the latest member
	// deadline. An individual member's cancellation no longer stops the
	// shared sweep — its result is dropped on the buffered done channel.
	gctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if !latest.IsZero() {
		gctx, cancel = context.WithDeadline(gctx, latest)
	}
	defer cancel()

	dev := live[0].groupDev
	lease, err := s.sched.AcquireN(gctx, dev, s.maxTiles())
	if err != nil {
		return fail(err)
	}
	defer lease.Release()
	s.leaseSize.Observe(float64(lease.Size()))
	leased := time.Now()
	for _, m := range live {
		m.leased = leased
	}

	// Identical fingerprints share one execution slot in the batch; the
	// duplicates are served the representative's result.
	slot := make([]int, len(live))
	rep := make(map[string]int, len(live))
	var sqls []string
	for i, m := range live {
		if j, ok := rep[m.fp]; ok {
			slot[i] = j
			continue
		}
		rep[m.fp] = len(sqls)
		slot[i] = len(sqls)
		sqls = append(sqls, m.req.SQL)
	}
	if dups := len(live) - len(sqls); dups > 0 {
		s.dedupCount.Add(int64(dups))
	}

	opt := s.cfg.Options
	opt.Telemetry = s.tel
	opt.Device = dev
	opt.ScanSharing = true
	opt.Parallelism = lease.Size()
	rows, mets, err := s.db.QueryGroupContext(gctx, sqls, opt)
	done := time.Now()
	for _, m := range live {
		m.execDone = done
	}
	if err != nil {
		return fail(err)
	}
	results = make([]taskResult, len(live))
	for i := range live {
		r, mt := rows[slot[i]], mets[slot[i]]
		results[i].resp = &Response{
			Columns:    r.Columns,
			Rows:       r.Data,
			RowCount:   len(r.Data),
			Device:     mt.DeviceUsed,
			Cycles:     mt.Cycles,
			SimSeconds: mt.Seconds,
			EstCycles:  mt.EstCycles,
			FlightSeq:  mt.FlightSeq,
			GroupID:    mt.GroupID,
			GroupSize:  mt.GroupSize,
		}
	}
	return results
}
