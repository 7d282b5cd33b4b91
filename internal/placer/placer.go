// Package placer chooses the placement a single query executes. Every run
// path — a device forced by the caller, the §7.2 whole-query crossover
// routing, and per-operator placement — resolves here to one
// plan.PlacedPlan for exec.Placed to run, so the facade, the cluster nodes
// and the command-line runner cannot drift into answers (or crashes) that
// differ by path.
package placer

import (
	"errors"

	"castle/internal/exec"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/stats"
)

// Mode selects how a request picks its devices.
type Mode int

// Modes.
const (
	// Pinned runs every operator on Request.Device.
	Pinned Mode = iota
	// Routed runs every operator on the device exec.DecideDevice picks.
	Routed
	// PerOperator lets the placement search give each operator its own
	// device, pricing the crossings the way the run realizes them.
	PerOperator
)

// Request describes one run's placement.
type Request struct {
	Mode Mode
	// Device is the device a Pinned request runs on.
	Device plan.Device
	// Priced annotates a Pinned or Routed placement with the cost model's
	// estimates and the other device's total (optimizer.PredictUniform);
	// unpriced ones are bare plan.Compile output. PerOperator placements
	// are always priced: the search needs the prices.
	Priced bool
}

// ErrCAPEGroupedSumMul rejects a request pinned to CAPE for a query CAPE's
// aggregation kernel cannot run (plan.Query.GroupedSumMul). Routed and
// per-operator requests place such a query on the CPU instead.
var ErrCAPEGroupedSumMul = errors.New("placer: CAPE cannot aggregate SUM(a*b) under GROUP BY; run it on the CPU or the hybrid device")

// Choose resolves the placement phys executes under r at vector length
// maxvl.
func Choose(phys *plan.Physical, cat *stats.Catalog, maxvl int, r Request) (*plan.PlacedPlan, error) {
	dev := r.Device
	switch r.Mode {
	case PerOperator:
		return optimizer.PlacePlan(phys, cat, maxvl), nil
	case Routed:
		dev = exec.DecideDevice(phys, cat, 0, 0)
	}
	if dev == plan.DeviceCAPE && phys.Query.GroupedSumMul() {
		return nil, ErrCAPEGroupedSumMul
	}
	if !r.Priced {
		return plan.Compile(phys, dev), nil
	}
	return optimizer.PredictUniform(phys, cat, maxvl, dev), nil
}
