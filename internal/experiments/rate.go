package experiments

import (
	"fmt"
	"math"

	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
	"dbiopt/internal/hw"
	"dbiopt/internal/phy"
	"dbiopt/internal/stats"
)

// RateSweepConfig parameterises the physical-operating-point sweeps of
// Fig. 7 and Fig. 8.
type RateSweepConfig struct {
	Config
	// MinRate/MaxRate/StepRate define the data-rate axis in bit/s.
	MinRate, MaxRate, StepRate float64
	// Cload is the load capacitance in farads (Fig. 7 uses 3 pF).
	Cload float64
	// MakeLink builds the link at a given (cload, rate); defaults to
	// phy.POD135, the GDDR5X interface of the paper.
	MakeLink func(cload, rate float64) phy.Link
}

// DefaultRateSweepConfig mirrors Fig. 7: POD135, 3 pF, 0.5 to 20 Gbps.
func DefaultRateSweepConfig() RateSweepConfig {
	return RateSweepConfig{
		Config:   DefaultConfig(),
		MinRate:  0.5 * phy.Gbps,
		MaxRate:  20 * phy.Gbps,
		StepRate: 0.5 * phy.Gbps,
		Cload:    3 * phy.PicoFarad,
		MakeLink: phy.POD135,
	}
}

// Validate reports an error for unusable sweep parameters.
func (c RateSweepConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if !(c.MinRate > 0) || !(c.MaxRate >= c.MinRate) || !(c.StepRate > 0) {
		return fmt.Errorf("experiments: bad rate axis [%g, %g] step %g", c.MinRate, c.MaxRate, c.StepRate)
	}
	if c.Cload < 0 {
		return fmt.Errorf("experiments: negative Cload %g", c.Cload)
	}
	return nil
}

func (c RateSweepConfig) link(cload, rate float64) phy.Link {
	if c.MakeLink != nil {
		return c.MakeLink(cload, rate)
	}
	return phy.POD135(cload, rate)
}

// RateResult is one normalised-energy-vs-data-rate curve family (Fig. 7).
type RateResult struct {
	RatesGbps []float64
	// Normalised interface energy per burst, relative to RAW at the same
	// operating point.
	DC, AC, Opt, OptFixed []float64
}

// Fig7 reproduces Fig. 7: interface energy per burst of each scheme,
// normalised to unencoded transmission, across per-pin data rates.
func Fig7(cfg RateSweepConfig) (RateResult, error) {
	if err := cfg.Validate(); err != nil {
		return RateResult{}, err
	}
	bc := collect(cfg.Config)
	var r RateResult
	for rate := cfg.MinRate; rate <= cfg.MaxRate+1e-6; rate += cfg.StepRate {
		link := cfg.link(cfg.Cload, rate)
		raw := meanEnergy(bc.raw, link)
		r.RatesGbps = append(r.RatesGbps, rate/phy.Gbps)
		r.DC = append(r.DC, meanEnergy(bc.dc, link)/raw)
		r.AC = append(r.AC, meanEnergy(bc.ac, link)/raw)
		r.OptFixed = append(r.OptFixed, meanEnergy(bc.fixed, link)/raw)
		r.Opt = append(r.Opt, optMeanEnergy(bc.bursts, link, cfg.costWorkers())/raw)
	}
	return r, nil
}

func meanEnergy(costs []bus.Cost, link phy.Link) float64 {
	var sum float64
	for _, c := range costs {
		sum += link.BurstEnergy(c)
	}
	return sum / float64(len(costs))
}

func optMeanEnergy(bursts []bus.Burst, link phy.Link, workers int) float64 {
	enc := scheme("OPT", link.Weights())
	var sum float64
	// As in optMean: parallel integer costs, serial in-order float sum.
	for _, c := range dbi.ParallelCosts(enc, bursts, workers) {
		sum += link.BurstEnergy(c)
	}
	return sum / float64(len(bursts))
}

// Plot converts the rate sweep to a renderable plot.
func (r RateResult) Plot(title string) *stats.Plot {
	p := &stats.Plot{Title: title, XLabel: "Data Rate [Gbps]", YLabel: "Normalized Energy", X: r.RatesGbps}
	mustAdd(p, "DC", r.DC)
	mustAdd(p, "AC", r.AC)
	mustAdd(p, "OPT", r.Opt)
	mustAdd(p, "OPT (Fixed)", r.OptFixed)
	return p
}

// DCOptFixedCrossover returns the data rate in Gbps at which OPT (Fixed)
// becomes as cheap as DBI DC (the paper finds 3.8 Gbps at 3 pF), linearly
// interpolated between the first grid rate where OPT (Fixed) <= DC and the
// rate before it. NaN if OPT (Fixed) never reaches DC.
func (r RateResult) DCOptFixedCrossover() float64 {
	for i := range r.RatesGbps {
		if r.OptFixed[i] <= r.DC[i] {
			return crossing(r.RatesGbps, r.OptFixed, r.DC, i)
		}
	}
	return math.NaN()
}

// MaxGainRate returns the data rate in Gbps where OPT (Fixed) enjoys its
// largest advantage over the best conventional scheme, and that advantage
// as a fraction (the paper finds ~14 Gbps at 3 pF).
func (r RateResult) MaxGainRate() (rateGbps, saving float64) {
	for i := range r.RatesGbps {
		best := math.Min(r.DC[i], r.AC[i])
		if best <= 0 {
			continue
		}
		s := 1 - r.OptFixed[i]/best
		if s > saving {
			saving = s
			rateGbps = r.RatesGbps[i]
		}
	}
	return rateGbps, saving
}

// Table1Result wraps the synthesis reports with presentation helpers.
type Table1Result struct {
	Reports []hw.Report
}

// Table1 reproduces the paper's Table I with the hw package's estimation
// flow (see DESIGN.md for the substitution notes).
func Table1(beats int, cfg hw.SynthesisConfig) Table1Result {
	return Table1Result{Reports: hw.SynthesizeAll(beats, cfg)}
}

// Table renders the synthesis reports as the paper's table layout.
func (r Table1Result) Table() *stats.Table {
	t := &stats.Table{
		Title: "Table I — synthesis estimates (generic 32nm-style library)",
		Columns: []string{"Scheme", "Area (µm²)", "Static (µW)", "Dynamic (µW)",
			"Burst Rate (GHz)", "Total (µW)", "E/Burst (pJ)", "Meets 1.5 GHz"},
	}
	for _, rep := range r.Reports {
		_ = t.AddRow(rep.Scheme,
			fmt.Sprintf("%.0f", rep.AreaUm2),
			fmt.Sprintf("%.1f", rep.StaticUw),
			fmt.Sprintf("%.1f", rep.DynamicUw),
			fmt.Sprintf("%.2f", rep.BurstRateGHz),
			fmt.Sprintf("%.1f", rep.TotalUw),
			fmt.Sprintf("%.3f", rep.EnergyPerBurstPJ),
			fmt.Sprint(rep.MeetsTarget))
	}
	return t
}

// EncodingEnergy returns the per-burst encoder energy in joules for the
// named Table I scheme, the quantity Fig. 8 folds into the link energy.
func (r Table1Result) EncodingEnergy(scheme string) (float64, error) {
	for _, rep := range r.Reports {
		if rep.Scheme == scheme {
			return rep.EnergyPerBurstPJ * 1e-12, nil
		}
	}
	return 0, fmt.Errorf("experiments: no synthesis report for %q", scheme)
}

// Fig8Result holds, per load capacitance, the total (link + encoder) energy
// of OPT (Fixed) normalised to the best conventional scheme including its
// encoder energy — the format of Fig. 8.
type Fig8Result struct {
	RatesGbps []float64
	CloadsPF  []float64
	// Norm[c][i] is the normalised energy at CloadsPF[c], RatesGbps[i].
	Norm [][]float64
}

// Fig8 reproduces Fig. 8: the fixed-coefficient scheme's energy per burst,
// including the energy spent encoding (from the Table I flow), normalised
// to the better of DBI DC and DBI AC (also charged their encoder energy),
// across data rates and load capacitances.
func Fig8(cfg RateSweepConfig, cloadsPF []float64, synth Table1Result) (Fig8Result, error) {
	if err := cfg.Validate(); err != nil {
		return Fig8Result{}, err
	}
	encDC, err := synth.EncodingEnergy("DBI DC")
	if err != nil {
		return Fig8Result{}, err
	}
	encAC, err := synth.EncodingEnergy("DBI AC")
	if err != nil {
		return Fig8Result{}, err
	}
	encOpt, err := synth.EncodingEnergy("DBI OPT (Fixed Coeff.)")
	if err != nil {
		return Fig8Result{}, err
	}

	bc := collect(cfg.Config)
	var out Fig8Result
	out.CloadsPF = append(out.CloadsPF, cloadsPF...)
	for rate := cfg.MinRate; rate <= cfg.MaxRate+1e-6; rate += cfg.StepRate {
		out.RatesGbps = append(out.RatesGbps, rate/phy.Gbps)
	}
	for _, cpf := range cloadsPF {
		row := make([]float64, 0, len(out.RatesGbps))
		for _, rg := range out.RatesGbps {
			link := cfg.link(cpf*phy.PicoFarad, rg*phy.Gbps)
			dc := meanEnergy(bc.dc, link) + encDC
			ac := meanEnergy(bc.ac, link) + encAC
			opt := meanEnergy(bc.fixed, link) + encOpt
			row = append(row, opt/math.Min(dc, ac))
		}
		out.Norm = append(out.Norm, row)
	}
	return out, nil
}

// Plot converts the Fig. 8 family to a renderable plot, one series per load
// capacitance.
func (r Fig8Result) Plot(title string) *stats.Plot {
	p := &stats.Plot{Title: title, XLabel: "Data Rate [Gbps]", YLabel: "Normalized Energy", X: r.RatesGbps}
	for i, c := range r.CloadsPF {
		mustAdd(p, fmt.Sprintf("%g pF", c), r.Norm[i])
	}
	return p
}

// BestSaving returns the largest saving (as a fraction) across the sweep
// for the given load capacitance index.
func (r Fig8Result) BestSaving(cloadIdx int) (rateGbps, saving float64) {
	for i, v := range r.Norm[cloadIdx] {
		if s := 1 - v; s > saving {
			saving = s
			rateGbps = r.RatesGbps[i]
		}
	}
	return rateGbps, saving
}
