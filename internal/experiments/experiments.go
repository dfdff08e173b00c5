// Package experiments reproduces every table and figure of the evaluation
// in "Optimal DC/AC Data Bus Inversion Coding" (DATE 2018). Each runner is
// deterministic given its configuration and returns a typed result that can
// be rendered as a gnuplot data file, a CSV, or a Markdown table.
//
// Index (see DESIGN.md for the full mapping):
//
//	Fig2   — the worked example: per-scheme costs and the Pareto front
//	Fig3   — energy per burst vs. the AC cost share, RAW/DC/AC/OPT
//	Fig4   — Fig. 3 plus the fixed-coefficient OPT variant
//	Table1 — synthesis-style area/power/rate estimates of the four designs
//	Fig7   — interface energy vs. data rate, normalised to RAW
//	Fig8   — energy incl. encoding energy vs. data rate across load
//	         capacitances, normalised to the best conventional scheme
package experiments

import (
	"fmt"
	"math"

	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
	"dbiopt/internal/stats"
	"dbiopt/internal/trace"
)

// Config parameterises the Monte-Carlo sweeps. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Bursts is the number of random bursts per operating point; the paper
	// uses 10000.
	Bursts int
	// Beats is the burst length; the paper (GDDR5/DDR4) uses 8.
	Beats int
	// Seed drives the workload generator.
	Seed int64
	// Steps is the number of sweep points on the alpha axis of Fig. 3/4.
	Steps int
	// Workers caps the goroutines used to evaluate per-burst costs. This is
	// the canonical contract (see DESIGN.md §5): 0 or 1 selects the serial
	// path — the zero value of Config stays the historical single-threaded
	// run and never silently fans out. CLIs that advertise "0 = all cores"
	// (dbibench -workers, dbitrace cost -workers) resolve 0 to
	// runtime.GOMAXPROCS(0) *before* building a Config, so the package-level
	// meaning of 0 is unambiguous. Costs are integers computed
	// positionally, so every worker count produces bit-identical results.
	Workers int
}

// scheme fetches a registered coding scheme. Every name used inside this
// package is a built-in registered at init, so a lookup failure is a
// programming error and panics rather than threading an impossible error
// through every runner.
func scheme(name string, w dbi.Weights) dbi.Encoder {
	enc, err := dbi.Lookup(name, w)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return enc
}

// costWorkers returns the worker count to hand the dbi parallel drivers:
// the config's cap, with the zero value meaning serial (never GOMAXPROCS,
// so the zero Config stays the historical single-threaded run).
func (c Config) costWorkers() int {
	if c.Workers <= 0 {
		return 1
	}
	return c.Workers
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{Bursts: 10000, Beats: 8, Seed: 2018, Steps: 50}
}

// Validate reports an error for unusable configurations.
func (c Config) Validate() error {
	if c.Bursts <= 0 || c.Beats <= 0 || c.Steps <= 0 {
		return fmt.Errorf("experiments: Bursts, Beats and Steps must be positive: %+v", c)
	}
	return nil
}

// Fig2Burst is the byte sequence of the paper's worked example.
var Fig2Burst = bus.Burst{0x8E, 0x86, 0x96, 0xE9, 0x7D, 0xB7, 0x57, 0xC4}

// Fig2Result captures the worked example: the costs each scheme achieves
// and the full Pareto front of the example burst.
type Fig2Result struct {
	Burst  bus.Burst
	DC     bus.Cost
	AC     bus.Cost
	Opt    bus.Cost // alpha = beta = 1
	Pareto []bus.Cost
}

// Fig2 reproduces the paper's Fig. 2 numbers.
func Fig2() Fig2Result {
	b := Fig2Burst.Clone()
	return Fig2Result{
		Burst:  b,
		DC:     dbi.CostOf(scheme("DC", dbi.FixedWeights), bus.InitialLineState, b),
		AC:     dbi.CostOf(scheme("AC", dbi.FixedWeights), bus.InitialLineState, b),
		Opt:    dbi.CostOf(scheme("OPT-FIXED", dbi.FixedWeights), bus.InitialLineState, b),
		Pareto: dbi.ParetoFront(bus.InitialLineState, b),
	}
}

// Table renders the Fig. 2 result for terminal output.
func (r Fig2Result) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Fig. 2 — worked example (burst " + trace.FormatHexBurst(r.Burst) + ")",
		Columns: []string{"Scheme", "Zeros", "Transitions", "Cost (α=β=1)"},
	}
	add := func(name string, c bus.Cost) {
		_ = t.AddRow(name, fmt.Sprint(c.Zeros), fmt.Sprint(c.Transitions), fmt.Sprint(c.Zeros+c.Transitions))
	}
	add("DBI DC", r.DC)
	add("DBI AC", r.AC)
	add("DBI OPT", r.Opt)
	for _, p := range r.Pareto {
		add("  pareto", p)
	}
	return t
}

// burstCosts precomputes, for every generated burst, the activity counts of
// the schemes whose decisions do not depend on the weights. Bursts are
// encoded independently from the idle state, as in the paper.
type burstCosts struct {
	bursts []bus.Burst
	raw    []bus.Cost
	dc     []bus.Cost
	ac     []bus.Cost
	fixed  []bus.Cost
}

func collect(cfg Config) burstCosts {
	src := trace.NewUniform(cfg.Seed)
	bc := burstCosts{bursts: make([]bus.Burst, cfg.Bursts)}
	for i := range bc.bursts {
		bc.bursts[i] = src.Next(cfg.Beats)
	}
	// The generator is stateful and runs serially above; the per-burst
	// costs are pure and fan out. ParallelCosts is positional, so the
	// slices are identical to the historical serial fill.
	w := cfg.costWorkers()
	bc.raw = dbi.ParallelCosts(scheme("RAW", dbi.FixedWeights), bc.bursts, w)
	bc.dc = dbi.ParallelCosts(scheme("DC", dbi.FixedWeights), bc.bursts, w)
	bc.ac = dbi.ParallelCosts(scheme("AC", dbi.FixedWeights), bc.bursts, w)
	bc.fixed = dbi.ParallelCosts(scheme("OPT-FIXED", dbi.FixedWeights), bc.bursts, w)
	return bc
}

func meanWeighted(costs []bus.Cost, alpha, beta float64) float64 {
	var sum float64
	for _, c := range costs {
		sum += c.Weighted(alpha, beta)
	}
	return sum / float64(len(costs))
}

// SweepResult holds one energy-per-burst curve family over the alpha axis
// (alpha = AC cost share, beta = 1 - alpha), the format of Fig. 3 and 4.
type SweepResult struct {
	Alphas []float64
	Raw    []float64
	DC     []float64
	AC     []float64
	Opt    []float64
	// OptFixed is only populated by Fig4.
	OptFixed []float64
}

// Fig3 reproduces Fig. 3: mean energy per burst for RAW, DBI DC, DBI AC and
// DBI OPT as the transition cost alpha sweeps from 0 to 1 with beta = 1 -
// alpha, on uniformly random bursts.
func Fig3(cfg Config) (SweepResult, error) {
	if err := cfg.Validate(); err != nil {
		return SweepResult{}, err
	}
	bc := collect(cfg)
	r := newSweep(cfg.Steps)
	for i, alpha := range r.Alphas {
		beta := 1 - alpha
		r.Raw[i] = meanWeighted(bc.raw, alpha, beta)
		r.DC[i] = meanWeighted(bc.dc, alpha, beta)
		r.AC[i] = meanWeighted(bc.ac, alpha, beta)
		r.Opt[i] = optMean(bc.bursts, alpha, beta, cfg.costWorkers())
	}
	return r, nil
}

// Fig4 reproduces Fig. 4: Fig. 3 plus the fixed-coefficient scheme.
func Fig4(cfg Config) (SweepResult, error) {
	r, err := Fig3(cfg)
	if err != nil {
		return r, err
	}
	bc := collect(cfg) // same seed: identical bursts
	r.OptFixed = make([]float64, len(r.Alphas))
	for i, alpha := range r.Alphas {
		r.OptFixed[i] = meanWeighted(bc.fixed, alpha, 1-alpha)
	}
	return r, nil
}

func newSweep(steps int) SweepResult {
	r := SweepResult{
		Alphas: make([]float64, steps+1),
		Raw:    make([]float64, steps+1),
		DC:     make([]float64, steps+1),
		AC:     make([]float64, steps+1),
		Opt:    make([]float64, steps+1),
	}
	for i := range r.Alphas {
		r.Alphas[i] = float64(i) / float64(steps)
	}
	return r
}

func optMean(bursts []bus.Burst, alpha, beta float64, workers int) float64 {
	enc := scheme("OPT", dbi.Weights{Alpha: alpha, Beta: beta})
	var sum float64
	// Integer costs in parallel, float reduction serial and in index order:
	// the mean is bit-identical for every worker count.
	for _, c := range dbi.ParallelCosts(enc, bursts, workers) {
		sum += c.Weighted(alpha, beta)
	}
	return sum / float64(len(bursts))
}

// Plot converts the sweep to a renderable plot.
func (r SweepResult) Plot(title string) *stats.Plot {
	p := &stats.Plot{Title: title, XLabel: "AC cost (alpha)", YLabel: "Energy per Burst", X: r.Alphas}
	mustAdd(p, "RAW", r.Raw)
	mustAdd(p, "DC", r.DC)
	mustAdd(p, "AC", r.AC)
	mustAdd(p, "OPT", r.Opt)
	if r.OptFixed != nil {
		mustAdd(p, "OPT (Fixed)", r.OptFixed)
	}
	return p
}

func mustAdd(p *stats.Plot, name string, y []float64) {
	if err := p.Add(name, y); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
}

// BestConventional returns, per sweep point, min(DC, AC) — the baseline the
// paper compares OPT against.
func (r SweepResult) BestConventional() []float64 {
	best := make([]float64, len(r.Alphas))
	for i := range best {
		best[i] = math.Min(r.DC[i], r.AC[i])
	}
	return best
}

// MaxAdvantage returns the largest relative saving of series (e.g. r.Opt)
// versus the best conventional scheme, and the alpha where it occurs.
func (r SweepResult) MaxAdvantage(series []float64) (saving, atAlpha float64) {
	best := r.BestConventional()
	for i := range series {
		if best[i] <= 0 {
			continue
		}
		s := 1 - series[i]/best[i]
		if s > saving {
			saving = s
			atAlpha = r.Alphas[i]
		}
	}
	return saving, atAlpha
}

// Crossover returns the alpha at which AC becomes cheaper than DC (the
// paper finds 0.56 on uniform data): the first grid point where AC < DC,
// moved back along the straight line through it and its predecessor to
// where AC - DC reaches zero. NaN if AC never drops below DC.
func (r SweepResult) Crossover() float64 {
	for i := range r.Alphas {
		if r.AC[i] < r.DC[i] {
			return crossing(r.Alphas, r.AC, r.DC, i)
		}
	}
	return math.NaN()
}

// crossing interpolates where a - b reaches zero between grid points i-1
// and i, given a[i-1] >= b[i-1] and a[i] <= b[i] with at least one strict;
// at i == 0 there is no bracket and xs[0] is returned.
func crossing(xs, a, b []float64, i int) float64 {
	if i == 0 {
		return xs[0]
	}
	d0, d1 := a[i-1]-b[i-1], a[i]-b[i]
	return xs[i-1] + (xs[i]-xs[i-1])*d0/(d0-d1)
}
