package experiments

import (
	"fmt"

	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
	"dbiopt/internal/stats"
	"dbiopt/internal/trace"
)

// This file holds the ablation studies behind the paper's design choices —
// experiments the paper implies but does not plot. Each quantifies what one
// decision buys:
//
//	CoefficientBitsAblation — why 3-bit coefficients suffice (Table I's
//	   configurable design): coding-efficiency loss vs. coefficient width.
//	GreedyGapAblation — why a global shortest path instead of the per-byte
//	   weighted heuristics of Chang et al.: the greedy-vs-optimal gap.
//	BurstLengthAblation — how the advantage scales with burst length
//	   (GDDR5X BL8 vs. BL16 and hypothetical lengths).

// CoeffBitsResult reports, per coefficient width, the mean relative excess
// cost of the quantised optimal encoder over the true optimum, worst-cased
// over a grid of weight ratios.
type CoeffBitsResult struct {
	Bits []int
	// WorstLoss[i] is the largest relative excess across the alpha grid.
	WorstLoss []float64
	// MeanLoss[i] is the average excess across the grid.
	MeanLoss []float64
}

// CoefficientBitsAblation sweeps the coefficient width from 1 to maxBits
// and measures the loss against the exact-weight optimum on random bursts.
func CoefficientBitsAblation(cfg Config, maxBits int) (CoeffBitsResult, error) {
	if err := cfg.Validate(); err != nil {
		return CoeffBitsResult{}, err
	}
	if maxBits < 1 || maxBits > 10 {
		return CoeffBitsResult{}, fmt.Errorf("experiments: maxBits must be 1..10, got %d", maxBits)
	}
	bc := collect(cfg)
	alphas := []float64{0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9}

	var out CoeffBitsResult
	for bits := 1; bits <= maxBits; bits++ {
		var worst, sum float64
		for _, alpha := range alphas {
			w := dbi.Weights{Alpha: alpha, Beta: 1 - alpha}
			qw, err := dbi.QuantizeWeightsBits(w, bits)
			if err != nil {
				return CoeffBitsResult{}, err
			}
			exact := optMean(bc.bursts, w.Alpha, w.Beta, cfg.costWorkers())
			// Encode with the quantised weights, but charge the true
			// weights: this is exactly the hardware's situation.
			quant := crossMean(bc.bursts, scheme("OPT", qw), w)
			loss := quant/exact - 1
			sum += loss
			if loss > worst {
				worst = loss
			}
		}
		out.Bits = append(out.Bits, bits)
		out.WorstLoss = append(out.WorstLoss, worst)
		out.MeanLoss = append(out.MeanLoss, sum/float64(len(alphas)))
	}
	return out, nil
}

// crossMean encodes with enc but evaluates under eval weights.
func crossMean(bursts []bus.Burst, enc dbi.Encoder, eval dbi.Weights) float64 {
	var sum float64
	for _, b := range bursts {
		sum += eval.Cost(dbi.CostOf(enc, bus.InitialLineState, b))
	}
	return sum / float64(len(bursts))
}

// Table renders the coefficient ablation.
func (r CoeffBitsResult) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Ablation — coefficient width vs. coding-efficiency loss",
		Columns: []string{"Bits", "Worst loss", "Mean loss"},
	}
	for i, b := range r.Bits {
		_ = t.AddRow(fmt.Sprint(b), fmt.Sprintf("%.3f%%", r.WorstLoss[i]*100),
			fmt.Sprintf("%.3f%%", r.MeanLoss[i]*100))
	}
	return t
}

// GreedyGapResult reports the per-byte heuristic's excess cost over the
// optimum across the alpha axis.
type GreedyGapResult struct {
	Alphas []float64
	// Gap[i] is greedy/optimal - 1 at Alphas[i].
	Gap []float64
}

// GreedyGapAblation measures how much of the optimal gain a Chang-style
// per-byte weighted heuristic captures.
func GreedyGapAblation(cfg Config) (GreedyGapResult, error) {
	if err := cfg.Validate(); err != nil {
		return GreedyGapResult{}, err
	}
	bc := collect(cfg)
	var out GreedyGapResult
	for i := 0; i <= cfg.Steps; i++ {
		alpha := float64(i) / float64(cfg.Steps)
		w := dbi.Weights{Alpha: alpha, Beta: 1 - alpha}
		opt := optMean(bc.bursts, alpha, 1-alpha, cfg.costWorkers())
		greedy := crossMean(bc.bursts, scheme("GREEDY", w), w)
		out.Alphas = append(out.Alphas, alpha)
		if opt > 0 {
			out.Gap = append(out.Gap, greedy/opt-1)
		} else {
			out.Gap = append(out.Gap, 0)
		}
	}
	return out, nil
}

// MaxGap returns the largest greedy-vs-optimal excess and its alpha.
func (r GreedyGapResult) MaxGap() (gap, atAlpha float64) {
	for i, g := range r.Gap {
		if g > gap {
			gap = g
			atAlpha = r.Alphas[i]
		}
	}
	return gap, atAlpha
}

// BurstLenResult reports the optimal scheme's advantage at the balanced
// operating point as a function of burst length.
type BurstLenResult struct {
	Beats []int
	// Advantage[i] is 1 - OPT/bestConventional at alpha = 0.5.
	Advantage []float64
}

// BurstLengthAblation sweeps the burst length. Longer bursts give the
// shortest path more room to amortise inversion-state changes, so the
// advantage grows with length and saturates.
func BurstLengthAblation(cfg Config, lengths []int) (BurstLenResult, error) {
	if err := cfg.Validate(); err != nil {
		return BurstLenResult{}, err
	}
	var out BurstLenResult
	const alpha, beta = 0.5, 0.5
	w := dbi.Weights{Alpha: alpha, Beta: beta}
	for _, n := range lengths {
		if n <= 0 {
			return BurstLenResult{}, fmt.Errorf("experiments: burst length must be positive, got %d", n)
		}
		src := trace.NewUniform(cfg.Seed)
		opt, dc, ac := scheme("OPT", w), scheme("DC", w), scheme("AC", w)
		var optSum, dcSum, acSum float64
		for i := 0; i < cfg.Bursts; i++ {
			b := src.Next(n)
			optSum += w.Cost(dbi.CostOf(opt, bus.InitialLineState, b))
			dcSum += w.Cost(dbi.CostOf(dc, bus.InitialLineState, b))
			acSum += w.Cost(dbi.CostOf(ac, bus.InitialLineState, b))
		}
		best := dcSum
		if acSum < best {
			best = acSum
		}
		out.Beats = append(out.Beats, n)
		out.Advantage = append(out.Advantage, 1-optSum/best)
	}
	return out, nil
}
