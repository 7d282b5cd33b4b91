package telemetry

// flight.go is the query flight recorder: a fixed-capacity ring of complete
// per-query records — SQL, fingerprint, placement, per-operator predicted
// and actual cycles, and wall-clock lifecycle phases — kept for the last N
// queries. The recorder is the post-mortem complement to the span ring:
// spans answer "what does a query lifecycle look like in general", the
// flight recorder answers "where did THIS query's time go and was the cost
// model right about it". It backs /debug/queries, the slow-query log, and
// the REPL's \flight command.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"sync"
	"time"
)

// FlightPhase is one wall-clock lifecycle interval of a query. The phases
// of a record partition its WallMicros: they sum (within microsecond
// rounding) to the end-to-end latency the client observed.
type FlightPhase struct {
	// Name identifies the interval ("queue", "lease", "exec", "serialize"
	// through the server; "prepare"/"execute" for direct facade callers).
	Name string `json:"name"`
	// Micros is the interval's wall-clock duration in microseconds.
	Micros int64 `json:"micros"`
}

// FlightOp is one operator of a query's EXPLAIN ANALYZE breakdown with the
// optimizer's prediction alongside the measured actuals — the
// predicted-vs-actual contract the misestimate telemetry reads.
type FlightOp struct {
	// Operator is the breakdown row name ("prep:date", "filter", ...).
	Operator string `json:"operator"`
	// Device names the engine the operator ran on (empty when unplaced).
	Device string `json:"device,omitempty"`
	// EstCycles is the cost model's predicted cycle count (0 for rows the
	// model does not price, e.g. "overhead").
	EstCycles int64 `json:"est_cycles,omitempty"`
	// Cycles is the measured simulated cycle count.
	Cycles int64 `json:"cycles"`
	// Rows is the operator's measured row cardinality (-1 when not
	// meaningful).
	Rows int64 `json:"rows"`
	// EstSource is the provenance of the estimate: "assumed" (fixed
	// constants) or "histogram" (collected statistics). Empty for unpriced
	// rows.
	EstSource string `json:"est_source,omitempty"`
}

// FlightRecord is the complete post-mortem of one query.
type FlightRecord struct {
	// Seq is the recorder-assigned sequence number (1-based, monotone).
	Seq uint64 `json:"seq"`
	// SQL is the statement text.
	SQL string `json:"sql"`
	// Fingerprint groups executions of the same statement (FNV-1a of the
	// trimmed SQL).
	Fingerprint string `json:"fingerprint"`
	// Start is when the query entered the system.
	Start time.Time `json:"start"`
	// WallMicros is end-to-end wall time; the Phases partition it.
	WallMicros int64 `json:"wall_micros"`
	// Status is the outcome ("ok", "error", "deadline", "canceled", or
	// "panic" for an execution a server worker recovered from).
	Status string `json:"status"`
	// Error carries the failure message for non-ok statuses.
	Error string `json:"error,omitempty"`
	// Device names the engine(s) that executed ("CAPE", "CPU", "CAPE+CPU").
	Device string `json:"device,omitempty"`
	// Placement is the hybrid granularity ("whole-query", "per-operator");
	// empty when the device was forced.
	Placement string `json:"placement,omitempty"`
	// Plan is the rendered physical or placed plan.
	Plan string `json:"plan,omitempty"`
	// RowCount is the result cardinality.
	RowCount int `json:"row_count"`
	// Cycles is the measured end-to-end simulated cycle count.
	Cycles int64 `json:"cycles"`
	// EstCycles is the cost model's predicted total for the placement that
	// ran (0 when no prediction applies).
	EstCycles int64 `json:"est_cycles,omitempty"`
	// AltEstCycles is the predicted total of the best alternative placement
	// (the runner-up the optimizer rejected). When Cycles exceeds it the
	// placement would have flipped under perfect information.
	AltEstCycles int64 `json:"alt_est_cycles,omitempty"`
	// GroupID identifies the fused shared-scan group this query executed in
	// (0 when it ran solo). All members of a coalesced group share one ID.
	GroupID uint64 `json:"group_id,omitempty"`
	// GroupSize is how many member queries the fused group executed
	// together (0 when solo).
	GroupSize int `json:"group_size,omitempty"`
	// Phases are the wall-clock lifecycle intervals, in order.
	Phases []FlightPhase `json:"phases"`
	// Ops is the per-operator predicted-vs-actual table.
	Ops []FlightOp `json:"ops,omitempty"`
	// Batches counts the MAXVL-sized batches the streaming pipeline pulled
	// (0 for materializing runs).
	Batches int64 `json:"batches,omitempty"`
	// PeakBatchBytes is the high-water mark of bytes resident in streaming
	// batches across the run (0 for materializing runs).
	PeakBatchBytes int64 `json:"peak_batch_bytes,omitempty"`
}

// PhaseMicros returns the duration of a named phase (0 when absent).
func (r *FlightRecord) PhaseMicros(name string) int64 {
	for _, p := range r.Phases {
		if p.Name == name {
			return p.Micros
		}
	}
	return 0
}

// SumPhaseMicros sums the lifecycle phases (== WallMicros within rounding
// for a complete record).
func (r *FlightRecord) SumPhaseMicros() int64 {
	var n int64
	for _, p := range r.Phases {
		n += p.Micros
	}
	return n
}

// clone deep-copies the record so ring amendments never alias snapshots.
func (r FlightRecord) clone() FlightRecord {
	r.Phases = append([]FlightPhase(nil), r.Phases...)
	r.Ops = append([]FlightOp(nil), r.Ops...)
	return r
}

// Format renders the record as an aligned text block (the \flight detail
// view and slow-query-log companion).
func (r *FlightRecord) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query #%d [%s] %s\n", r.Seq, r.Status, r.SQL)
	fmt.Fprintf(&b, "  fingerprint=%s device=%s", r.Fingerprint, r.Device)
	if r.Placement != "" {
		fmt.Fprintf(&b, " placement=%s", r.Placement)
	}
	fmt.Fprintf(&b, " rows=%d wall=%.3fms\n", r.RowCount, float64(r.WallMicros)/1e3)
	fmt.Fprintf(&b, "  cycles=%d est=%d", r.Cycles, r.EstCycles)
	if r.AltEstCycles > 0 {
		fmt.Fprintf(&b, " alt_est=%d", r.AltEstCycles)
	}
	if r.Batches > 0 {
		fmt.Fprintf(&b, " batches=%d peak_batch_bytes=%d", r.Batches, r.PeakBatchBytes)
	}
	if r.GroupSize > 0 {
		fmt.Fprintf(&b, " group=%d/%d", r.GroupID, r.GroupSize)
	}
	if r.Error != "" {
		fmt.Fprintf(&b, " error=%q", r.Error)
	}
	b.WriteByte('\n')
	if len(r.Phases) > 0 {
		b.WriteString("  phases:")
		for _, p := range r.Phases {
			fmt.Fprintf(&b, " %s=%.3fms", p.Name, float64(p.Micros)/1e3)
		}
		b.WriteByte('\n')
	}
	if len(r.Ops) > 0 {
		withSrc := false
		for _, op := range r.Ops {
			if op.EstSource != "" {
				withSrc = true
			}
		}
		fmt.Fprintf(&b, "  %-20s %-8s %14s %14s %9s %12s",
			"operator", "device", "est", "cycles", "est/act", "rows")
		if withSrc {
			fmt.Fprintf(&b, " %-10s", "est-src")
		}
		b.WriteByte('\n')
		for _, op := range r.Ops {
			ratio := "-"
			if op.EstCycles > 0 && op.Cycles > 0 {
				ratio = fmt.Sprintf("%.2f", float64(op.EstCycles)/float64(op.Cycles))
			}
			rows := ""
			if op.Rows >= 0 {
				rows = fmt.Sprintf("%d", op.Rows)
			}
			est := ""
			if op.EstCycles > 0 || op.EstSource != "" {
				est = fmt.Sprintf("%d", op.EstCycles)
			}
			fmt.Fprintf(&b, "  %-20s %-8s %14s %14d %9s %12s",
				op.Operator, op.Device, est, op.Cycles, ratio, rows)
			if withSrc {
				src := "-"
				if op.EstSource != "" {
					src = op.EstSource
				}
				fmt.Fprintf(&b, " %-10s", src)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// WriteChromeTrace exports the record as a self-contained Chrome trace:
// the lifecycle phases render as sequential slices, and the execution
// phase carries one nested slice per operator, scaled to the operator's
// share of the measured cycles, with predicted and actual counts in the
// slice args.
func (r *FlightRecord) WriteChromeTrace(w io.Writer) error {
	events := []chromeEvent{{
		Name: "query",
		Cat:  "flight",
		Ph:   "X",
		TS:   0,
		Dur:  float64(r.WallMicros),
		PID:  1,
		TID:  1,
		Args: map[string]any{
			"seq":         r.Seq,
			"sql":         r.SQL,
			"fingerprint": r.Fingerprint,
			"status":      r.Status,
			"device":      r.Device,
			"cycles":      r.Cycles,
			"est_cycles":  r.EstCycles,
		},
	}}
	var cursor, execStart, execDur float64
	for _, p := range r.Phases {
		events = append(events, chromeEvent{
			Name: p.Name, Cat: "flight", Ph: "X",
			TS: cursor, Dur: float64(p.Micros), PID: 1, TID: 2,
		})
		if p.Name == "exec" || p.Name == "execute" {
			execStart, execDur = cursor, float64(p.Micros)
		}
		cursor += float64(p.Micros)
	}
	// Operator slices: wall time inside the execution phase, apportioned by
	// each operator's share of the measured cycles.
	var totalCycles int64
	for _, op := range r.Ops {
		if op.Cycles > 0 {
			totalCycles += op.Cycles
		}
	}
	if totalCycles > 0 && execDur > 0 {
		cursor = execStart
		for _, op := range r.Ops {
			if op.Cycles <= 0 {
				continue
			}
			d := execDur * float64(op.Cycles) / float64(totalCycles)
			events = append(events, chromeEvent{
				Name: op.Operator, Cat: "flight", Ph: "X",
				TS: cursor, Dur: d, PID: 1, TID: 3,
				Args: map[string]any{
					"device":     op.Device,
					"cycles":     op.Cycles,
					"est_cycles": op.EstCycles,
					"rows":       op.Rows,
				},
			})
			cursor += d
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}{"ms", events})
}

// DefaultFlightCapacity is the recorder's default ring size.
const DefaultFlightCapacity = 256

// FlightRecorder keeps the last N FlightRecords in a ring. Commit and read
// paths take one short mutex hold (copying a record), so the recorder adds
// nanoseconds to a query whose execution simulates millions of cycles.
// A nil *FlightRecorder is a valid no-op.
type FlightRecorder struct {
	mu      sync.Mutex
	cap     int
	seq     uint64 // last assigned sequence number == total records ever
	recs    []FlightRecord
	next    int // ring cursor once len(recs) == cap
	wrapped bool
}

// NewFlightRecorder returns a recorder keeping up to capacity records
// (<= 0 selects DefaultFlightCapacity).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{cap: capacity}
}

// Record commits one record, assigns it the next sequence number, and
// returns that number (0 on a nil recorder).
func (f *FlightRecorder) Record(r FlightRecord) uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	r.Seq = f.seq
	if len(f.recs) < f.cap {
		f.recs = append(f.recs, r)
	} else {
		f.recs[f.next] = r
		f.next = (f.next + 1) % f.cap
		f.wrapped = true
	}
	return r.Seq
}

// Amend applies fn to the record with the given sequence number, if it is
// still in the ring. It reports whether the record was found. The ring is
// small (N queries), so the linear scan is cheap relative to one query.
func (f *FlightRecorder) Amend(seq uint64, fn func(*FlightRecord)) bool {
	if f == nil || seq == 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.recs {
		if f.recs[i].Seq == seq {
			fn(&f.recs[i])
			f.recs[i].Seq = seq // the sequence number is the recorder's
			return true
		}
	}
	return false
}

// Get returns a deep copy of the record with the given sequence number.
func (f *FlightRecorder) Get(seq uint64) (FlightRecord, bool) {
	if f == nil {
		return FlightRecord{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.recs {
		if f.recs[i].Seq == seq {
			return f.recs[i].clone(), true
		}
	}
	return FlightRecord{}, false
}

// Snapshot returns deep copies of the retained records, newest first.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightRecord, 0, len(f.recs))
	if f.wrapped {
		for i := f.next - 1; i >= 0; i-- {
			out = append(out, f.recs[i].clone())
		}
		for i := len(f.recs) - 1; i >= f.next; i-- {
			out = append(out, f.recs[i].clone())
		}
	} else {
		for i := len(f.recs) - 1; i >= 0; i-- {
			out = append(out, f.recs[i].clone())
		}
	}
	return out
}

// Len returns the number of retained records.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.recs)
}

// Cap returns the ring capacity.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return f.cap
}

// Total returns how many records have ever been committed (records beyond
// the ring capacity have been evicted but still counted).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// FingerprintSQL returns the statement fingerprint flight records carry:
// FNV-1a over the trimmed SQL, rendered as 16 hex digits.
func FingerprintSQL(sql string) string {
	h := fnv.New64a()
	_, _ = io.WriteString(h, strings.TrimSpace(sql))
	return fmt.Sprintf("%016x", h.Sum64())
}
