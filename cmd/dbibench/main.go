// Command dbibench regenerates every table and figure of the paper's
// evaluation section and writes gnuplot-ready data files plus a terminal
// summary.
//
// Usage:
//
//	dbibench [-out results] [-bursts 10000] [-seed 2018] [-quick] [-workers n] [-profile cpu.pprof] [-lanes n]
//
// Outputs (in -out):
//
//	fig3.dat, fig4.dat — energy per burst vs. AC cost share
//	fig7.dat           — normalised energy vs. data rate (POD135, 3 pF)
//	fig8.dat           — energy incl. encoding energy vs. rate, per cload
//	table1.md          — synthesis-style estimates of the four designs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"dbiopt/internal/experiments"
	"dbiopt/internal/hw"
	"dbiopt/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dbibench:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("out", "results", "output directory for .dat/.md files")
	bursts := flag.Int("bursts", 10000, "random bursts per operating point (paper: 10000)")
	seed := flag.Int64("seed", 2018, "workload seed")
	quick := flag.Bool("quick", false, "use 1000 bursts for a fast smoke run")
	ablations := flag.Bool("ablations", false, "also run the design-choice ablation studies")
	workers := flag.Int("workers", 1, "goroutines for per-burst cost evaluation; 0 = all cores (results are identical for any value)")
	profile := flag.String("profile", "", "write a CPU profile of the whole run to this file (inspect with `go tool pprof`)")
	lanes := flag.Int("lanes", 0, "run the lane-batch throughput study (serial Transmit vs TransmitBatch) with this many lanes instead of the figures")
	flag.Parse()

	if *quick {
		*bursts = 1000
	}
	// The profile brackets every experiment below, so performance work can
	// capture the real regeneration workload without ad-hoc patches.
	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	// Resolve the CLI's "0 = all cores" convention here, before Config is
	// built: experiments.Config.Workers treats 0 (and 1) as the serial path
	// (the canonical contract, see its doc comment and DESIGN.md §5), so
	// the flag-level default must never leak into the Config.
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	cfg := experiments.DefaultConfig()
	cfg.Bursts = *bursts
	cfg.Seed = *seed
	cfg.Workers = *workers

	// The lane study is a dedicated mode: it drives the frame-level batch
	// encode path (LaneSet.TransmitBatch) against the serial per-lane path
	// and prints the speedup table, without regenerating the figures.
	if *lanes > 0 {
		study, err := experiments.LaneStudy(cfg, *lanes)
		if err != nil {
			return err
		}
		return study.Table().WriteText(os.Stdout)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	// Fig. 2 — the worked example.
	fig2 := experiments.Fig2()
	if err := fig2.Table().WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	// Fig. 3 and Fig. 4.
	fig4, err := experiments.Fig4(cfg)
	if err != nil {
		return err
	}
	fig3 := fig4 // Fig. 3 is Fig. 4 without the fixed series
	fig3.OptFixed = nil
	if err := writePlot(fig3.Plot("Fig. 3 - Energy per Burst using different DBI schemes"), *out, "fig3.dat"); err != nil {
		return err
	}
	fig4Full, err := experiments.Fig4(cfg)
	if err != nil {
		return err
	}
	if err := writePlot(fig4Full.Plot("Fig. 4 - Energy per Burst, incl. fixed coefficients"), *out, "fig4.dat"); err != nil {
		return err
	}
	cross := fig4Full.Crossover()
	savOpt, atOpt := fig4Full.MaxAdvantage(fig4Full.Opt)
	savFix, atFix := fig4Full.MaxAdvantage(fig4Full.OptFixed)
	fmt.Printf("Fig. 3/4: AC overtakes DC at alpha=%.3f (paper: 0.56)\n", cross)
	fmt.Printf("          max OPT advantage %.2f%% at alpha=%.2f (paper: 6.75%%)\n", savOpt*100, atOpt)
	fmt.Printf("          max OPT(Fixed) advantage %.2f%% at alpha=%.2f (paper: 6.58%%)\n\n", savFix*100, atFix)

	// Table I.
	synthCfg := hw.DefaultSynthesisConfig()
	table1 := experiments.Table1(8, synthCfg)
	if err := table1.Table().WriteText(os.Stdout); err != nil {
		return err
	}
	if err := writeTable(table1.Table(), *out, "table1.md"); err != nil {
		return err
	}
	fmt.Println()

	// Fig. 7.
	rcfg := experiments.DefaultRateSweepConfig()
	rcfg.Config = cfg
	fig7, err := experiments.Fig7(rcfg)
	if err != nil {
		return err
	}
	if err := writePlot(fig7.Plot("Fig. 7 - Interface energy per burst normalised to RAW (POD135, 3 pF)"), *out, "fig7.dat"); err != nil {
		return err
	}
	rate, saving := fig7.MaxGainRate()
	fmt.Printf("Fig. 7: DC beats OPT(Fixed) until %.3f Gbps (paper: 3.8)\n", fig7.DCOptFixedCrossover())
	fmt.Printf("        max gain %.2f%% at %.1f Gbps (paper: ~6%% around 14 Gbps)\n\n", saving*100, rate)

	// Fig. 8.
	cloads := []float64{1, 2, 3, 4, 6, 8}
	fig8, err := experiments.Fig8(rcfg, cloads, table1)
	if err != nil {
		return err
	}
	if err := writePlot(fig8.Plot("Fig. 8 - Energy incl. encoding energy, normalised to best of DBI DC/AC"), *out, "fig8.dat"); err != nil {
		return err
	}
	for i, c := range cloads {
		r, s := fig8.BestSaving(i)
		fmt.Printf("Fig. 8: cload=%g pF: best saving %.2f%% at %.1f Gbps\n", c, s*100, r)
	}

	fmt.Printf("\nwrote %s\n", filepath.Join(*out, "{fig3,fig4,fig7,fig8}.dat, table1.md"))

	if *ablations {
		fmt.Println()
		if err := runAblations(cfg); err != nil {
			return err
		}
	}
	return nil
}

// runAblations executes the design-choice studies (coefficient width,
// greedy-vs-optimal, burst length) and prints their summaries.
func runAblations(cfg experiments.Config) error {
	coeff, err := experiments.CoefficientBitsAblation(cfg, 5)
	if err != nil {
		return err
	}
	if err := coeff.Table().WriteText(os.Stdout); err != nil {
		return err
	}

	greedy, err := experiments.GreedyGapAblation(cfg)
	if err != nil {
		return err
	}
	gap, at := greedy.MaxGap()
	fmt.Printf("\nAblation — greedy (per-byte, Chang-style) vs optimal: worst gap %.2f%% at alpha=%.2f\n", gap*100, at)

	bl, err := experiments.BurstLengthAblation(cfg, []int{2, 4, 8, 16, 32})
	if err != nil {
		return err
	}
	fmt.Println("\nAblation — OPT advantage over best conventional vs burst length (alpha=0.5):")
	for i, n := range bl.Beats {
		fmt.Printf("  BL%-3d %.2f%%\n", n, bl.Advantage[i]*100)
	}
	return nil
}

func writePlot(p *stats.Plot, dir, name string) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := p.WriteDat(f); err != nil {
		return err
	}
	return f.Close()
}

func writeTable(t *stats.Table, dir, name string) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteMarkdown(f); err != nil {
		return err
	}
	return f.Close()
}
