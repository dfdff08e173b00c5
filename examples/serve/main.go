// Serve: run the dbiserve encode service in-process and drive it with the
// Go client — the serving-layer walkthrough. Two sessions with different
// schemes share one server: each keeps its own continuous per-lane wire
// state, and every result is bit-identical to running the same frames
// through a local Stream/LaneSet (that is the serving contract; see
// DESIGN.md §6).
//
// For the stand-alone binary, run `go run ./cmd/dbiserve` and point this
// client at its -addr instead of the in-process listener.
package main

import (
	"fmt"
	"math/rand"

	"dbiopt"
)

func main() {
	// Start a server on an ephemeral loopback port. The zero-ish config
	// serves OPT-FIXED to sessions that do not pick a scheme.
	srv, err := dbiopt.Serve(dbiopt.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	fmt.Println("dbiserve listening on", srv.Addr())

	// A deterministic 4-lane workload, 64 frames of BL8 bursts.
	const lanes, frames = 4, 64
	rng := rand.New(rand.NewSource(2018))
	workload := make([]dbiopt.Frame, frames)
	for i := range workload {
		f := make(dbiopt.Frame, lanes)
		for l := range f {
			b := make(dbiopt.Burst, dbiopt.BurstLength)
			rng.Read(b)
			f[l] = b
		}
		workload[i] = f
	}

	// Session 1: the paper's fixed-coefficient optimal scheme, frame by
	// frame. Each EncodeFrame round trip returns the wire images the
	// server chose; the first one is shown beat by beat.
	opt, err := dbiopt.Dial(srv.Addr().String(), dbiopt.SessionConfig{
		Scheme: "OPT-FIXED", Lanes: lanes, Beats: dbiopt.BurstLength,
	})
	if err != nil {
		panic(err)
	}
	wires, err := opt.EncodeFrame(workload[0])
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nsession %q, frame 0, lane 0:\n  payload %v\n  wire    %s\n",
		opt.Scheme(), workload[0][0], wires[0])
	fmt.Println("  decodes to payload again:", dbiopt.Decode(wires[0]).Equal(workload[0][0]))
	for _, f := range workload[1 : frames/2] {
		if _, err := opt.EncodeFrame(f); err != nil {
			panic(err)
		}
	}

	// The second half of the workload goes up as one batch message; the
	// server replays it frame by frame onto the same per-lane state the
	// single frames advanced.
	if _, err := opt.EncodeBatch(workload[frames/2:]); err != nil {
		panic(err)
	}

	// Session 2: the same workload under plain JEDEC DBI DC, as a batch.
	// Sessions are independent — different scheme, separate wire state.
	dc, err := dbiopt.Dial(srv.Addr().String(), dbiopt.SessionConfig{
		Scheme: "DC", Lanes: lanes, Beats: dbiopt.BurstLength,
	})
	if err != nil {
		panic(err)
	}
	if _, err := dc.EncodeBatch(workload); err != nil {
		panic(err)
	}

	// Compare what each session achieved against the uncoded baseline the
	// server tracks per session, and price it on a GDDR5X-style link.
	link := dbiopt.POD135(3*dbiopt.PicoFarad, 12*dbiopt.Gbps)
	report := func(c *dbiopt.Client) {
		totals, err := c.Close()
		if err != nil {
			panic(err)
		}
		saved := 1 - link.BurstEnergy(totals.Coded)/link.BurstEnergy(totals.Raw)
		fmt.Printf("%-10s %4d frames  coded %v  raw %v  toggles saved %d  energy saved %.1f%%\n",
			c.Scheme(), totals.Frames, totals.Coded, totals.Raw, totals.TogglesSaved(), 100*saved)
	}
	fmt.Println("\nper-session totals (vs the uncoded baseline):")
	report(opt)
	report(dc)

	// The server-wide counters, as a late client would scrape them.
	last, err := dbiopt.Dial(srv.Addr().String(), dbiopt.SessionConfig{Lanes: 1, Beats: 8})
	if err != nil {
		panic(err)
	}
	text, err := last.Metrics()
	if err != nil {
		panic(err)
	}
	fmt.Println()
	fmt.Print(text)
	if _, err := last.Close(); err != nil {
		panic(err)
	}
}
