package castle_test

// streaming_test.go covers the facade surface of the streaming pipeline,
// which every run goes through: no device or placement may change an
// answer, the metrics must report batch counts and peak residency, and the
// telemetry exports (Prometheus names, flight records) must carry them.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	castle "castle"
)

// TestEveryDeviceStreams runs SSB queries on every device and placement:
// each answer must match the forced-CPU answer exactly, and every run must
// report the batches its pipeline pulled, the peak bytes they held, and a
// non-negative overlap credit.
func TestEveryDeviceStreams(t *testing.T) {
	db := castle.GenerateSSB(0.01, 7)
	devices := []castle.Options{
		{Device: castle.DeviceCAPE},
		{Device: castle.DeviceCAPE, Parallelism: 2},
		{Device: castle.DeviceCPU, Parallelism: 2},
		{Device: castle.DeviceHybrid},
		{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator},
		{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator, Parallelism: 2},
	}
	for _, q := range []castle.SSBQuery{castle.SSBQueries()[0], castle.SSBQueries()[3], castle.SSBQueries()[8]} {
		want, _, err := db.QueryWith(q.SQL, castle.Options{Device: castle.DeviceCPU})
		if err != nil {
			t.Fatalf("%s cpu: %v", q.Flight, err)
		}
		for _, opt := range devices {
			label := fmt.Sprintf("%s %s/%s K=%d", q.Flight, opt.Device, opt.Placement, opt.Parallelism)
			got, m, err := db.QueryWith(q.SQL, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(want.Data, got.Data) {
				t.Errorf("%s: answer differs from the CPU's\nwant: %v\ngot:  %v", label, want.Data, got.Data)
			}
			if m.StreamBatches == 0 {
				t.Errorf("%s: run reports no batches", label)
			}
			// A mixed placement ships only survivors, so an empty answer can
			// legitimately ship zero bytes; any non-empty answer cannot.
			if len(got.Data) > 0 && m.PeakBatchBytes <= 0 {
				t.Errorf("%s: run reports no peak batch bytes", label)
			}
			if m.XferOverlapCycles < 0 {
				t.Errorf("%s: negative overlap credit %d", label, m.XferOverlapCycles)
			}
		}
	}
}

// TestStreamingTelemetryExports checks the observable tail: the Prometheus
// rendering carries the peak-residency gauge (and the overlap counter when
// a crossing overlapped), and the flight record reports batch accounting.
func TestStreamingTelemetryExports(t *testing.T) {
	db := castle.GenerateSSB(0.01, 7)
	tel := castle.NewTelemetry()
	q := castle.SSBQueries()[3]
	_, m, err := db.QueryWith(q.SQL, castle.Options{
		Device:    castle.DeviceHybrid,
		Placement: castle.PlacementPerOperator,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tel.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "castle_peak_batch_bytes") {
		t.Error("Prometheus output missing castle_peak_batch_bytes")
	}
	if m.XferOverlapCycles > 0 && !strings.Contains(out, "castle_xfer_overlap_cycles_total") {
		t.Error("overlap credited but castle_xfer_overlap_cycles_total not exported")
	}
	rec, ok := tel.Flight().Get(m.FlightSeq)
	if !ok {
		t.Fatalf("flight record #%d missing", m.FlightSeq)
	}
	if rec.Batches != m.StreamBatches {
		t.Errorf("flight batches = %d, metrics report %d", rec.Batches, m.StreamBatches)
	}
	if rec.PeakBatchBytes != m.PeakBatchBytes {
		t.Errorf("flight peak bytes = %d, metrics report %d", rec.PeakBatchBytes, m.PeakBatchBytes)
	}
}
