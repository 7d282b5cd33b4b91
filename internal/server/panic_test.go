package server

// panic_test.go pins execution panic recovery: a kernel that panics — on
// the worker, on one of a query's tile or lane goroutines, or inside a
// fused shared-scan group — is answered with a 500, leaves a status=panic
// flight record per request, counts once in castle_server_panics_total,
// and the worker and its lease survive to serve the next request. The
// panics are injected through exec.SetFaultHook, which runs at the start
// of every fact-stage work unit on the goroutine executing it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"castle"
	"castle/internal/exec"
	"castle/internal/telemetry"
)

// injectFaults makes every kernel work unit for which fail returns true
// panic, until the test ends.
func injectFaults(t *testing.T, fail func(ctx context.Context) bool) {
	t.Cleanup(exec.SetFaultHook(func(ctx context.Context) {
		if fail(ctx) {
			panic("injected execution fault")
		}
	}))
}

// panicOnce makes the next kernel work unit panic, and only that one.
func panicOnce(t *testing.T) {
	var fired atomic.Bool
	injectFaults(t, func(context.Context) bool { return fired.CompareAndSwap(false, true) })
}

// panicRecords returns the flight records with status=panic.
func panicRecords(s *Server) []telemetry.FlightRecord {
	var out []telemetry.FlightRecord
	for _, r := range s.Telemetry().Flight().Snapshot() {
		if r.Status == "panic" {
			out = append(out, r)
		}
	}
	return out
}

func TestWorkerPanicAnswers500AndKeepsServing(t *testing.T) {
	// One CPU slot and one CAPE tile: the follow-up request needs the very
	// worker and lease the panicking execution held.
	s := newTestServer(t, Config{QueueDepth: 8, CAPETiles: 1, CPUSlots: 1, Device: "cpu"})
	panicOnce(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	q := castle.SSBQueries()[0]
	body, _ := json.Marshal(Request{SQL: q.SQL})

	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking query answered %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(eb.Error, "injected execution fault") {
		t.Fatalf("500 body = %q, want the panic value", eb.Error)
	}

	recs := panicRecords(s)
	if len(recs) != 1 || recs[0].SQL != q.SQL || !strings.Contains(recs[0].Error, "goroutine") {
		t.Fatalf("panic flight records = %+v, want one for the query, with its stack", recs)
	}
	reg := s.Telemetry().Metrics()
	if got := reg.CounterValue(telemetry.MetricServerPanics); got != 1 {
		t.Fatalf("%s = %d, want 1", telemetry.MetricServerPanics, got)
	}
	if got := reg.CounterValue(telemetry.MetricServerRequests, telemetry.L("status", "panic")); got != 1 {
		t.Fatalf("requests{status=panic} = %d, want 1", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Do(ctx, Request{SQL: q.SQL}); err != nil {
		t.Fatalf("request after the panic: %v", err)
	}
}

func TestFusedGroupPanicAnswersEveryMember(t *testing.T) {
	s := newTestServer(t, Config{
		QueueDepth: 16, CAPETiles: 1, CPUSlots: 1, Device: "cpu",
		ScanSharing: true, CoalesceWindow: 250 * time.Millisecond, MaxGroupSize: 8,
	})
	panicOnce(t)
	queries := castle.SSBQueries()[:3]

	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Do(context.Background(), Request{SQL: queries[i].SQL})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrInternal) || httpStatus(err) != http.StatusInternalServerError {
			t.Fatalf("member %d: err = %v, want ErrInternal (500)", i, err)
		}
	}
	if got := s.Telemetry().Metrics().CounterValue(telemetry.MetricServerPanics); got != 1 {
		t.Fatalf("%s = %d, want 1 (one fused execution panicked)", telemetry.MetricServerPanics, got)
	}
	if recs := panicRecords(s); len(recs) != len(queries) {
		t.Fatalf("%d panic flight records, want one per member (%d)", len(recs), len(queries))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Do(ctx, Request{SQL: queries[0].SQL}); err != nil {
		t.Fatalf("request after the panic: %v", err)
	}
}

// TestTilePanicAnswers500 makes every tile of a two-tile per-operator
// execution panic: the panics happen on the tiles' goroutines, not the
// worker, and are still answered with one 500, one counter increment and
// a flight record carrying a tile goroutine's stack.
func TestTilePanicAnswers500(t *testing.T) {
	s := newTestServer(t, Config{
		QueueDepth: 8, CAPETiles: 2, CPUSlots: 2, MaxTilesPerQuery: 2, Placement: "per-operator",
	})
	var failing atomic.Bool
	failing.Store(true)
	injectFaults(t, func(context.Context) bool { return failing.Load() })
	q := castle.SSBQueries()[0]

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Do(ctx, Request{SQL: q.SQL}); !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	if got := s.Telemetry().Metrics().CounterValue(telemetry.MetricServerPanics); got != 1 {
		t.Fatalf("%s = %d, want 1", telemetry.MetricServerPanics, got)
	}
	recs := panicRecords(s)
	if len(recs) != 1 || !strings.Contains(recs[0].Error, "castle/internal/fanout.Run") {
		t.Fatalf("panic flight records = %+v, want one with a tile goroutine's stack", recs)
	}

	failing.Store(false)
	resp, err := s.Do(ctx, Request{SQL: q.SQL})
	if err != nil {
		t.Fatalf("request after the panic: %v", err)
	}
	if !reflect.DeepEqual(resp.Rows, reference[q.Num]) {
		t.Fatal("rows after the panic diverged from reference")
	}
}

// faultyKey marks a request context whose execution must panic.
type faultyKey struct{}

// TestPanicChaosUnderLoad makes every fourth request's kernels panic while
// concurrent clients drive mixed SSB queries through per-operator
// placements on leases of up to two tiles, so the panics fire on tile and
// lane goroutines as well as on workers: every request is either answered
// correctly or with ErrInternal, and the 500s, the panic counter and the
// panic flight records all agree. Run with -race.
func TestPanicChaosUnderLoad(t *testing.T) {
	s := newTestServer(t, Config{
		QueueDepth: 256, CAPETiles: 4, CPUSlots: 4, MaxTilesPerQuery: 2, Placement: "per-operator",
	})
	injectFaults(t, func(ctx context.Context) bool { return ctx.Value(faultyKey{}) != nil })
	queries := castle.SSBQueries()

	const clients, perClient = 4, 12
	var wg sync.WaitGroup
	var internal, faulty atomic.Int64
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				n := c*perClient + i
				q := queries[n%len(queries)]
				ctx := context.Background()
				if n%4 == 0 {
					faulty.Add(1)
					ctx = context.WithValue(ctx, faultyKey{}, true)
				}
				resp, err := s.Do(ctx, Request{SQL: q.SQL})
				switch {
				case errors.Is(err, ErrInternal):
					internal.Add(1)
					if n%4 != 0 {
						errs <- errors.New(q.Flight + ": a fault-free request answered ErrInternal")
					}
				case err != nil:
					errs <- err
				case n%4 == 0:
					errs <- errors.New(q.Flight + ": a faulty request succeeded")
				case !reflect.DeepEqual(resp.Rows, reference[q.Num]):
					errs <- errors.New(q.Flight + ": rows diverged from reference")
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	want := faulty.Load()
	if internal.Load() != want {
		t.Fatalf("%d requests answered ErrInternal, want %d", internal.Load(), want)
	}
	if got := s.Telemetry().Metrics().CounterValue(telemetry.MetricServerPanics); got != want {
		t.Fatalf("%s = %d, want %d", telemetry.MetricServerPanics, got, want)
	}
	if got := int64(len(panicRecords(s))); got != want {
		t.Fatalf("%d panic flight records, want %d", got, want)
	}
	// Four tiles and CPU slots for four clients leave most leases two
	// wide, so some faults must have fired on a fanned-out goroutine.
	offWorker := 0
	for _, r := range panicRecords(s) {
		if strings.Contains(r.Error, "castle/internal/fanout.Run") {
			offWorker++
		}
	}
	if offWorker == 0 {
		t.Fatal("no injected panic fired on a tile or lane goroutine")
	}
}
