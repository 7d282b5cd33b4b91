package experiments

// adaptive.go measures what the statistics buy: the misestimate summary
// compares per-operator predicted-vs-actual divergence under the histogram
// estimator against the classic fixed-constant selectivities, and the
// adaptive curve runs every SSB query with the mid-query re-placement
// checkpoint on and off. Both land in the benchmark JSON artifact, so a
// regression in estimation quality is as visible in CI as one in cycles.

import (
	"fmt"
	"math"
	"sort"

	"castle"
	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/exec"
	"castle/internal/optimizer"
	"castle/internal/telemetry"
)

// DivStat summarizes a sample of symmetric-ratio divergences (100 = exact,
// 200 = off by 2x in either direction).
type DivStat struct {
	Samples int     `json:"samples"`
	MeanPct float64 `json:"mean_divergence_pct"`
	P95Pct  float64 `json:"p95_divergence_pct"`
}

// MisestimateModel is the per-operator divergence summary for one
// estimation model over the 13 SSB queries: overall and split by estimate
// source ("histogram" rows come from collected statistics, "assumed" rows
// from the fixed constants).
type MisestimateModel struct {
	Model    string             `json:"model"` // "histogram" or "fixed"
	Overall  DivStat            `json:"overall"`
	BySource map[string]DivStat `json:"by_source"`
}

func divStat(xs []float64) DivStat {
	if len(xs) == 0 {
		return DivStat{}
	}
	sort.Float64s(xs)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return DivStat{
		Samples: len(xs),
		MeanPct: sum / float64(len(xs)),
		P95Pct:  xs[int(0.95*float64(len(xs)-1))],
	}
}

// MisestimateSummary prices every SSB query's chosen placement twice — once
// from the collected histograms, once from the fixed-constant selectivities
// (CostModel.FixedEstimates) — executes each placement, and summarizes how
// far the per-operator predictions landed from the measured cycles. The
// histogram model earning a lower mean divergence is the quantified payoff
// of statistics-driven planning.
func (r *Runner) MisestimateSummary() []MisestimateModel {
	cfg := TierABA.config(r.MAXVL)
	models := []struct {
		name string
		m    optimizer.CostModel
	}{
		{"histogram", optimizer.DefaultCostModel()},
		{"fixed", func() optimizer.CostModel {
			m := optimizer.DefaultCostModel()
			m.FixedEstimates = true
			return m
		}()},
	}
	var out []MisestimateModel
	for _, mdl := range models {
		var overall []float64
		bySource := make(map[string][]float64)
		for num := 1; num <= 13; num++ {
			q := r.bind(querySQL(num))
			p, err := optimizer.Optimize(q, r.Cat, r.MAXVL)
			if err != nil {
				panic(err)
			}
			pp := optimizer.PlacePlanWith(p, r.Cat, r.MAXVL, mdl.m)
			castleEx := exec.NewCastle(cape.New(cfg), r.Cat, exec.DefaultCastleOptions())
			cpuex := exec.NewCPUExec(baseline.New(baseline.DefaultConfig()))
			x := exec.NewPlaced(castleEx, cpuex, r.Cat)
			if _, err := x.Run(pp, r.DB); err != nil {
				panic(fmt.Sprintf("experiments: misestimate bench Q%d (%s): %v", num, mdl.name, err))
			}
			bd := x.Breakdown()
			exec.ApplyEstimates(bd, pp)
			for _, o := range bd.Operators {
				if !o.Estimated() {
					continue
				}
				div, ok := telemetry.DivergencePct(o.EstCycles, o.Cycles)
				if !ok {
					continue // one-sided zero: no finite ratio to average
				}
				overall = append(overall, div)
				bySource[o.EstSource] = append(bySource[o.EstSource], div)
			}
		}
		mm := MisestimateModel{
			Model:    mdl.name,
			Overall:  divStat(overall),
			BySource: make(map[string]DivStat, len(bySource)),
		}
		for src, xs := range bySource {
			mm.BySource[src] = divStat(xs)
		}
		out = append(out, mm)
	}
	return out
}

// AdaptivePoint is one SSB query's static-vs-adaptive comparison through
// the facade: identical answers are asserted by the differential suite;
// here the interest is whether the checkpoint fired, whether the tail
// moved, and what the two runs cost.
type AdaptivePoint struct {
	Num            int     `json:"num"`
	Flight         string  `json:"flight"`
	StaticCycles   int64   `json:"static_cycles"`
	AdaptiveCycles int64   `json:"adaptive_cycles"`
	EstSurvivors   int64   `json:"est_survivors"`
	Observed       int64   `json:"observed_survivors"`
	DivergencePct  float64 `json:"divergence_pct"`
	Fired          bool    `json:"fired"`
	Replaced       bool    `json:"replaced"`
	TailDevice     string  `json:"tail_device"`
}

// RunAdaptiveCurve runs all 13 SSB queries under per-operator hybrid
// placement with the adaptive checkpoint off and on. The seed matches the
// facade test suite's (rather than the waterfall's) so the artifact shows
// the same demonstrated tail flip the tests pin; the curve compares a query
// against itself, so it shares no cycle counts with the other sections.
func RunAdaptiveCurve(sf float64) []AdaptivePoint {
	db := castle.GenerateSSB(sf, 20260704)
	static := castle.Options{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator}
	adaptive := static
	adaptive.AdaptivePlacement = true

	var out []AdaptivePoint
	for i, q := range castle.SSBQueries() {
		srows, sm, err := db.QueryWith(q.SQL, static)
		if err != nil {
			panic(fmt.Sprintf("experiments: adaptive bench %s static: %v", q.Flight, err))
		}
		arows, am, err := db.QueryWith(q.SQL, adaptive)
		if err != nil {
			panic(fmt.Sprintf("experiments: adaptive bench %s adaptive: %v", q.Flight, err))
		}
		if len(srows.Data) != len(arows.Data) {
			panic(fmt.Sprintf("experiments: adaptive bench %s changed the answer", q.Flight))
		}
		a := am.Adaptive
		pt := AdaptivePoint{
			Num:            i + 1,
			Flight:         q.Flight,
			StaticCycles:   sm.Cycles,
			AdaptiveCycles: am.Cycles,
		}
		if a != nil {
			pt.EstSurvivors = a.EstSurvivors
			pt.Observed = a.Observed
			pt.DivergencePct = math.Round(a.DivergencePct*10) / 10
			pt.Fired = a.Fired
			pt.Replaced = a.Replaced
			pt.TailDevice = a.TailDevice.String()
		}
		out = append(out, pt)
	}
	return out
}
