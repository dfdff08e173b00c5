package experiments

import (
	"strings"
	"testing"
)

// TestCoefficientBitsAblation: loss must be monotone non-increasing in the
// width (more bits can only help), negligible at 3 bits (the paper's
// choice), and zero-ish at high widths.
func TestCoefficientBitsAblation(t *testing.T) {
	cfg := testConfig()
	cfg.Bursts = 1000
	r, err := CoefficientBitsAblation(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bits) != 5 {
		t.Fatalf("bits = %v", r.Bits)
	}
	for i := range r.Bits {
		if r.WorstLoss[i] < -1e-9 || r.MeanLoss[i] < -1e-9 {
			t.Fatalf("negative loss at %d bits: quantised encoder beat the optimum", r.Bits[i])
		}
		if r.MeanLoss[i] > r.WorstLoss[i]+1e-12 {
			t.Fatalf("mean loss exceeds worst loss at %d bits", r.Bits[i])
		}
		if i > 0 && r.WorstLoss[i] > r.WorstLoss[i-1]+1e-9 {
			t.Errorf("worst loss grew from %d to %d bits: %.4f%% -> %.4f%%",
				r.Bits[i-1], r.Bits[i], r.WorstLoss[i-1]*100, r.WorstLoss[i]*100)
		}
	}
	// The paper's argument: 3 bits are enough for near-perfect encoding.
	if r.WorstLoss[2] > 0.01 {
		t.Errorf("3-bit worst loss %.3f%% exceeds 1%%", r.WorstLoss[2]*100)
	}
	// 1 bit means alpha = beta always: noticeably worse at skewed ratios.
	if r.WorstLoss[0] < r.WorstLoss[2] {
		t.Errorf("1-bit (%.3f%%) should lose more than 3-bit (%.3f%%)",
			r.WorstLoss[0]*100, r.WorstLoss[2]*100)
	}
	var sb strings.Builder
	if err := r.Table().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Bits") {
		t.Error("table missing header")
	}
}

// TestCoefficientBitsValidation covers the guards.
func TestCoefficientBitsValidation(t *testing.T) {
	if _, err := CoefficientBitsAblation(Config{}, 3); err == nil {
		t.Error("zero config accepted")
	}
	cfg := testConfig()
	if _, err := CoefficientBitsAblation(cfg, 0); err == nil {
		t.Error("zero bits accepted")
	}
	if _, err := CoefficientBitsAblation(cfg, 11); err == nil {
		t.Error("11 bits accepted")
	}
}

// TestGreedyGapAblation: the per-byte heuristic is never better than the
// optimum, matches it at the axis ends (where per-byte decisions are
// locally and globally optimal for DC; for AC the greedy transition rule is
// also optimal), and loses a measurable amount in the middle.
func TestGreedyGapAblation(t *testing.T) {
	cfg := testConfig()
	cfg.Bursts = 1500
	r, err := GreedyGapAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range r.Gap {
		if g < -1e-9 {
			t.Fatalf("greedy beat the optimum at alpha=%.2f", r.Alphas[i])
		}
	}
	gap, at := r.MaxGap()
	if gap <= 0.001 {
		t.Errorf("greedy gap %.4f%% implausibly small — the heuristic is not optimal", gap*100)
	}
	if gap > 0.10 {
		t.Errorf("greedy gap %.2f%% implausibly large", gap*100)
	}
	if at <= 0.05 || at >= 0.95 {
		t.Errorf("max gap at alpha=%.2f, expected in the interior", at)
	}
	if _, err := GreedyGapAblation(Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

// TestBurstLengthAblation: the optimal advantage grows with burst length
// and is already substantial at BL8.
func TestBurstLengthAblation(t *testing.T) {
	cfg := testConfig()
	cfg.Bursts = 1500
	lengths := []int{2, 4, 8, 16}
	r, err := BurstLengthAblation(cfg, lengths)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Beats) != len(lengths) {
		t.Fatalf("beats = %v", r.Beats)
	}
	for i, adv := range r.Advantage {
		if adv < 0 {
			t.Fatalf("negative advantage at BL%d", r.Beats[i])
		}
	}
	if r.Advantage[2] < 0.04 {
		t.Errorf("BL8 advantage %.2f%% below expectation", r.Advantage[2]*100)
	}
	if r.Advantage[3] < r.Advantage[0] {
		t.Errorf("advantage should grow with burst length: BL2=%.2f%% BL16=%.2f%%",
			r.Advantage[0]*100, r.Advantage[3]*100)
	}
	if _, err := BurstLengthAblation(cfg, []int{0}); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := BurstLengthAblation(Config{}, lengths); err == nil {
		t.Error("zero config accepted")
	}
}
