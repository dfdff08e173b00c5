package experiments

import (
	"math"
	"strings"
	"testing"

	"dbiopt/internal/bus"
)

// testConfig is DefaultConfig shrunk for test runtime; the statistics are
// stable well below 10000 bursts.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Bursts = 3000
	cfg.Steps = 40
	return cfg
}

// TestFig2GoldenValues pins the worked example end to end.
func TestFig2GoldenValues(t *testing.T) {
	r := Fig2()
	if r.DC != (bus.Cost{Zeros: 26, Transitions: 42}) {
		t.Errorf("DC = %+v", r.DC)
	}
	if r.AC != (bus.Cost{Zeros: 43, Transitions: 22}) {
		t.Errorf("AC = %+v", r.AC)
	}
	if r.Opt.Zeros+r.Opt.Transitions != 52 {
		t.Errorf("Opt total = %d", r.Opt.Zeros+r.Opt.Transitions)
	}
	want := []bus.Cost{{Zeros: 26, Transitions: 42}, {Zeros: 27, Transitions: 28}, {Zeros: 28, Transitions: 24}, {Zeros: 29, Transitions: 23}, {Zeros: 43, Transitions: 22}}
	if len(r.Pareto) != len(want) {
		t.Fatalf("pareto = %v", r.Pareto)
	}
	for i := range want {
		if r.Pareto[i] != want[i] {
			t.Errorf("pareto[%d] = %+v, want %+v", i, r.Pareto[i], want[i])
		}
	}
	tbl := r.Table()
	if len(tbl.Rows) != 3+len(want) {
		t.Errorf("table has %d rows", len(tbl.Rows))
	}
}

// TestFig3Claims checks the paper's Fig. 3 statements within tolerance
// bands around the published numbers:
//
//   - OPT is never worse than RAW, DC or AC at any alpha
//   - OPT coincides with DC at alpha=0 and with AC at alpha=1
//   - AC overtakes DC near alpha = 0.56
//   - the maximum OPT advantage over the best conventional scheme is
//     around 6.75 %
//   - RAW is flat at ~4 zeros + ~4 transitions per byte (32 per burst)
func TestFig3Claims(t *testing.T) {
	r, err := Fig3(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Alphas {
		if r.Opt[i] > r.DC[i]+1e-9 || r.Opt[i] > r.AC[i]+1e-9 || r.Opt[i] > r.Raw[i]+1e-9 {
			t.Fatalf("alpha=%.2f: OPT (%.3f) worse than a baseline (dc=%.3f ac=%.3f raw=%.3f)",
				r.Alphas[i], r.Opt[i], r.DC[i], r.AC[i], r.Raw[i])
		}
	}
	last := len(r.Alphas) - 1
	if d := r.Opt[0] - r.DC[0]; d < -1e-9 || d > 1e-9 {
		t.Errorf("alpha=0: OPT %.4f != DC %.4f", r.Opt[0], r.DC[0])
	}
	if d := r.Opt[last] - r.AC[last]; d < -1e-9 || d > 1e-9 {
		t.Errorf("alpha=1: OPT %.4f != AC %.4f", r.Opt[last], r.AC[last])
	}
	if cross := r.Crossover(); cross < 0.45 || cross > 0.65 {
		t.Errorf("AC/DC crossover at alpha=%.3f, paper finds 0.56", cross)
	}
	saving, at := r.MaxAdvantage(r.Opt)
	if saving < 0.055 || saving > 0.08 {
		t.Errorf("max OPT advantage %.2f%%, paper finds 6.75%%", saving*100)
	}
	if at < 0.4 || at > 0.7 {
		t.Errorf("max advantage at alpha=%.2f, expected near the crossover", at)
	}
	for i := range r.Raw {
		if r.Raw[i] < 31 || r.Raw[i] > 33 {
			t.Errorf("RAW at alpha=%.2f is %.2f, expected ~32", r.Alphas[i], r.Raw[i])
		}
	}
}

// TestFig4Claims checks the fixed-coefficient statements: OPT (Fixed) stays
// within a whisker of true OPT in the mid range, beats the best
// conventional scheme from roughly alpha 0.23 to 0.79, and its maximum
// advantage is nearly identical to OPT's (paper: 6.58 % vs 6.75 %).
func TestFig4Claims(t *testing.T) {
	r, err := Fig4(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.OptFixed == nil {
		t.Fatal("Fig4 did not populate OptFixed")
	}
	best := r.BestConventional()
	for i, alpha := range r.Alphas {
		if r.OptFixed[i] < r.Opt[i]-1e-9 {
			t.Fatalf("alpha=%.2f: fixed (%.3f) beats true OPT (%.3f) — impossible", alpha, r.OptFixed[i], r.Opt[i])
		}
		if alpha >= 0.3 && alpha <= 0.7 {
			if r.OptFixed[i] >= best[i] {
				t.Errorf("alpha=%.2f: fixed (%.4f) should beat best conventional (%.4f)", alpha, r.OptFixed[i], best[i])
			}
			// Within 2% of the true optimum in the mid range.
			if r.OptFixed[i] > r.Opt[i]*1.02 {
				t.Errorf("alpha=%.2f: fixed (%.4f) strays >2%% from OPT (%.4f)", alpha, r.OptFixed[i], r.Opt[i])
			}
		}
	}
	savFix, _ := r.MaxAdvantage(r.OptFixed)
	savOpt, _ := r.MaxAdvantage(r.Opt)
	if savFix < 0.05 || savFix > savOpt+1e-9 {
		t.Errorf("fixed max advantage %.2f%%, OPT %.2f%%; paper: 6.58%% vs 6.75%%", savFix*100, savOpt*100)
	}
}

// TestSweepPlot covers the plot conversion.
func TestSweepPlot(t *testing.T) {
	cfg := testConfig()
	cfg.Bursts = 200
	r, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := r.Plot("Fig. 4")
	if len(p.Series) != 5 {
		t.Errorf("plot has %d series", len(p.Series))
	}
	var sb strings.Builder
	if err := p.WriteDat(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "OPT_(Fixed)") {
		t.Error("dat output missing fixed series")
	}
}

// TestConfigValidation covers the config guards.
func TestConfigValidation(t *testing.T) {
	bad := []Config{{}, {Bursts: -1, Beats: 8, Steps: 2}, {Bursts: 1, Beats: 0, Steps: 2}, {Bursts: 1, Beats: 8, Steps: 0}}
	for _, cfg := range bad {
		if _, err := Fig3(cfg); err == nil {
			t.Errorf("Fig3(%+v) accepted", cfg)
		}
	}
	if _, err := Fig4(Config{}); err == nil {
		t.Error("Fig4 accepted zero config")
	}
}

// TestHeadlineClaimsAcrossSeeds: the reproduction's headline numbers — the
// AC/DC crossover near alpha 0.56 and the ~6.6 % maximum OPT advantage —
// must hold for any seed, not just the default one. This guards against the
// reproduction resting on a lucky workload draw.
func TestHeadlineClaimsAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 99, 31337} {
		cfg := testConfig()
		cfg.Bursts = 2000
		cfg.Seed = seed
		r, err := Fig4(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cross := r.Crossover(); cross < 0.45 || cross > 0.65 {
			t.Errorf("seed %d: crossover at alpha=%.3f outside the paper band", seed, cross)
		}
		if saving, _ := r.MaxAdvantage(r.Opt); saving < 0.05 || saving > 0.085 {
			t.Errorf("seed %d: max OPT advantage %.2f%% outside the paper band", seed, saving*100)
		}
		if saving, _ := r.MaxAdvantage(r.OptFixed); saving < 0.045 {
			t.Errorf("seed %d: fixed advantage %.2f%% too small", seed, saving*100)
		}
	}
}

// TestDeterminism: identical configs give identical curves.
func TestDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.Bursts = 500
	a, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Opt {
		if a.Opt[i] != b.Opt[i] || a.DC[i] != b.DC[i] {
			t.Fatalf("non-deterministic at point %d", i)
		}
	}
}

// TestCrossoverInterpolates pins both landmark crossings on synthetic
// curves with known crossing points: each reports where the straight line
// between the bracketing grid points reaches zero difference, not the
// first grid point past it.
func TestCrossoverInterpolates(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	sweep := SweepResult{
		Alphas: []float64{0.5, 0.6, 0.7},
		DC:     []float64{1, 1, 1},
		AC:     []float64{1.2, 0.9, 0.5}, // AC-DC: +0.2, -0.1 -> zero at 0.5 + 0.1*2/3
	}
	if got := sweep.Crossover(); !near(got, 0.5+0.1*2/3.0) {
		t.Errorf("sweep crossover = %v, want %v", got, 0.5+0.1*2/3.0)
	}
	sweep.AC = []float64{0.9, 0.8, 0.7} // below DC from the first point: no bracket
	if got := sweep.Crossover(); got != 0.5 {
		t.Errorf("unbracketed sweep crossover = %v, want the first alpha 0.5", got)
	}
	sweep.AC = []float64{1.1, 1.0, 1.2} // touches DC but never drops below it
	if got := sweep.Crossover(); !math.IsNaN(got) {
		t.Errorf("sweep without crossing = %v, want NaN", got)
	}

	rate := RateResult{
		RatesGbps: []float64{2, 3, 4, 5},
		DC:        []float64{1, 1, 1, 1},
		OptFixed:  []float64{1.3, 1.1, 0.9, 0.8}, // +0.1, -0.1 -> zero at 3.5
	}
	if got := rate.DCOptFixedCrossover(); !near(got, 3.5) {
		t.Errorf("rate crossover = %v, want 3.5", got)
	}
	rate.OptFixed = []float64{1.3, 1.0, 0.9, 0.8} // meets DC exactly on the grid
	if got := rate.DCOptFixedCrossover(); got != 3 {
		t.Errorf("on-grid rate crossover = %v, want 3", got)
	}
	rate.OptFixed = []float64{1.3, 1.2, 1.1, 1.05}
	if got := rate.DCOptFixedCrossover(); !math.IsNaN(got) {
		t.Errorf("rate sweep without crossing = %v, want NaN", got)
	}
}
