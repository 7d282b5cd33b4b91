package experiments

// misestimate.go measures what the statistics buy: the misestimate summary
// compares per-operator predicted-vs-actual divergence under the histogram
// estimator against the classic fixed-constant selectivities. It lands in
// the benchmark JSON artifact, so a regression in estimation quality is as
// visible in CI as one in cycles.

import (
	"fmt"
	"sort"

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
