// Package adapt implements online adaptive scheme selection for
// non-stationary bus traffic: a windowed controller that runs every
// candidate coding scheme in shadow, tracks each one's observed cost on
// the lane's actual burst stream, and switches the live scheme when a
// challenger's trailing-window cost beats the incumbent by a hysteresis
// margin.
//
// The paper's encoders are each optimal for a fixed cost model; real
// traffic shifts between regimes (zero-dominated writes, correlated
// streams, random data), and no single static scheme wins all of them.
// The controller closes that gap without ever touching the wire contract:
// every candidate is a plain per-burst DBI scheme, so the transmitted
// image stays decodable by any DBI receiver regardless of which scheme
// produced it — the DBI wire itself carries the per-beat inversion choice.
//
// # Shadow accounting
//
// Each candidate keeps its own shadow line state, the state the lane's
// wires would hold had that candidate been live from the last switch
// point. On every observed burst the controller encodes the burst with
// every challenger from its shadow state (reusing per-candidate scratch,
// so observation allocates nothing in steady state), accumulates the exact
// per-wire activity into the candidate's trailing-window cost, and
// advances the shadow state. The live candidate's shadow chain coincides
// with the real wire by construction, so it is accounted directly from
// the transmission the stream just performed — no duplicate encode, and
// its window cost is the true cost of the lane, not an estimate.
//
// # Switch protocol
//
// Every Window bursts the controller compares weighted window costs. The
// live scheme is replaced only when the best challenger's window cost is
// below live*(1-Margin) — the hysteresis that prevents thrashing when two
// schemes trade places on mixed traffic. A switch re-seeds every shadow
// chain at the live wire state (the state the new scheme inherits), so
// post-switch comparisons measure every candidate from shared ground
// truth instead of from histories that no longer exist. The OnSwitch hook
// fires with the switch record; internal/server mirrors it onto the wire
// as a SWITCH notice so serving sessions renegotiate mid-stream.
package adapt

import (
	"fmt"
	"strings"

	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
)

// Defaults for the zero Config fields.
const (
	// DefaultWindow is the decision-window length in bursts: long enough
	// that per-burst noise averages out, short enough to track phase
	// changes within a few hundred bursts.
	DefaultWindow = 64
	// DefaultMargin is the fractional hysteresis: a challenger must beat
	// the live scheme's window cost by 5% to take over.
	DefaultMargin = 0.05
)

// DefaultCandidates is the candidate set used when none is configured:
// the weight-free JEDEC schemes plus the paper's fixed-coefficient
// optimum, covering the zero-dominated, transition-dominated and mixed
// regimes.
func DefaultCandidates() []string { return []string{"DC", "AC", "OPT-FIXED"} }

// Switch records one scheme change.
type Switch struct {
	// Lane is the lane the controller drives (Config.Lane).
	Lane int
	// From and To are the registry names of the schemes involved.
	From, To string
	// Burst is the number of bursts the controller had observed when the
	// switch took effect (the switch point in the lane's burst stream).
	Burst int
	// Ordinal is the 1-based count of switches on this controller.
	Ordinal int
}

// Config configures a Controller. The zero value of every field except
// Candidates is usable; Candidates defaults to DefaultCandidates.
type Config struct {
	// Candidates are the registry names of the schemes to arbitrate
	// between, in priority order: the first is the initial live scheme,
	// and earlier candidates win cost ties.
	Candidates []string
	// Weights are the comparison weights: window costs are ranked by
	// Alpha*transitions + Beta*zeros. The zero value selects
	// dbi.FixedWeights (alpha = beta = 1). Weighted candidate schemes are
	// constructed with these weights too.
	Weights dbi.Weights
	// Window is the decision-window length in bursts; <= 0 selects
	// DefaultWindow.
	Window int
	// Margin is the fractional hysteresis in [0, 1): a challenger
	// switches in only when its window cost < live*(1-Margin). Zero
	// selects DefaultMargin; use a tiny positive value (not 0) to
	// effectively disable hysteresis.
	Margin float64
	// Lane identifies the lane this controller drives in Switch records;
	// purely informational.
	Lane int
	// OnSwitch, when non-nil, is called synchronously on every switch,
	// from whichever goroutine drives the lane.
	OnSwitch func(Switch)
}

// withDefaults returns cfg with zero fields resolved.
func (cfg Config) withDefaults() Config {
	if len(cfg.Candidates) == 0 {
		cfg.Candidates = DefaultCandidates()
	}
	if cfg.Weights == (dbi.Weights{}) {
		cfg.Weights = dbi.FixedWeights
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Margin == 0 {
		cfg.Margin = DefaultMargin
	}
	return cfg
}

// Validate reports an error for an unusable configuration (after default
// resolution): too few candidates, duplicate or unknown names, bad
// weights, or an out-of-range margin.
func (cfg Config) Validate() error {
	cfg = cfg.withDefaults()
	if len(cfg.Candidates) < 2 {
		return fmt.Errorf("adapt: need at least 2 candidate schemes, got %v", cfg.Candidates)
	}
	seen := make(map[string]bool, len(cfg.Candidates))
	for _, name := range cfg.Candidates {
		if seen[name] {
			return fmt.Errorf("adapt: duplicate candidate %q", name)
		}
		seen[name] = true
		if _, err := dbi.Lookup(name, cfg.Weights); err != nil {
			return fmt.Errorf("adapt: candidate: %w", err)
		}
	}
	if err := cfg.Weights.Validate(); err != nil {
		return err
	}
	if cfg.Margin < 0 || cfg.Margin >= 1 {
		return fmt.Errorf("adapt: margin must be in [0, 1), got %g", cfg.Margin)
	}
	return nil
}

// candidate is one scheme's shadow lane: the scheme pre-compiled to its
// kernel, the line state its chain has reached since the last switch
// point, and its trailing-window cost. The kernel replaces the old
// per-candidate interface probes and encode scratch wholesale: shadow
// encodes run through Kernel.Advance (mask-native at any burst length,
// pooled scratch only on the wide and []bool paths), and a switch binds
// the new live kernel with no recompilation — every candidate was
// compiled at construction.
type candidate struct {
	name  string
	kern  *dbi.Kernel
	state bus.LineState
	win   bus.Cost
}

// Controller is the windowed online scheme selector for one lane. It
// implements dbi.Adapter; construct with New and hand it to
// dbi.NewAdaptiveStream (or build whole lane sets through the dbiopt
// facade). Not safe for concurrent use — one controller per lane, driven
// by whichever single goroutine owns the lane.
type Controller struct {
	cfg      Config
	cands    []candidate
	live     int
	inWin    int // bursts observed in the current window
	bursts   int // bursts observed in total
	switches int
}

// New builds a controller from cfg (defaults resolved, then validated).
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, cands: make([]candidate, len(cfg.Candidates))}
	for i, name := range cfg.Candidates {
		kern, err := dbi.LookupKernel(name, cfg.Weights, dbi.Geometry{})
		if err != nil {
			return nil, fmt.Errorf("adapt: candidate: %w", err)
		}
		c.cands[i] = candidate{name: name, kern: kern, state: bus.InitialLineState}
	}
	return c, nil
}

// Factory returns a constructor of independent controllers for consecutive
// lanes: each call stamps the next lane index into its controller's Switch
// records. It validates cfg once up front so the per-lane constructor
// cannot fail.
func Factory(cfg Config) (func(lane int) dbi.Adapter, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return func(lane int) dbi.Adapter {
		laneCfg := cfg
		laneCfg.Lane = lane
		c, err := New(laneCfg)
		if err != nil {
			// Validated above; a failure here is a programming error.
			panic(fmt.Sprintf("adapt: validated config failed to build: %v", err))
		}
		return c
	}, nil
}

// Current implements dbi.Adapter: the live scheme.
func (c *Controller) Current() dbi.Encoder { return c.cands[c.live].kern.Encoder() }

// CurrentKernel implements dbi.KernelAdapter: the live scheme's compiled
// kernel, bound at construction. Adaptive streams encode through it
// directly, so a switch costs nothing but the pointer swap decide already
// performed.
func (c *Controller) CurrentKernel() *dbi.Kernel { return c.cands[c.live].kern }

// Scheme returns the registry name of the live scheme.
func (c *Controller) Scheme() string { return c.cands[c.live].name }

// Candidates returns the candidate names in priority order.
func (c *Controller) Candidates() []string {
	out := make([]string, len(c.cands))
	for i := range c.cands {
		out[i] = c.cands[i].name
	}
	return out
}

// LiveIndex returns the candidate index of the live scheme (the index into
// Candidates order), the form resume claims carry on the wire.
func (c *Controller) LiveIndex() int { return c.live }

// Switches returns how many times the controller has changed schemes.
func (c *Controller) Switches() int { return c.switches }

// Bursts returns how many bursts the controller has observed.
func (c *Controller) Bursts() int { return c.bursts }

// Window and Margin return the resolved decision parameters.
func (c *Controller) Window() int     { return c.cfg.Window }
func (c *Controller) Margin() float64 { return c.cfg.Margin }

// Observe implements dbi.Adapter: it shadow-encodes the burst with every
// challenger candidate, accumulates exact window costs, and at window
// boundaries runs the switch decision. cost and next must be the exact
// activity and the lane's wire state of the transmission just performed —
// the live scheme's shadow chain coincides with the real wire, so the
// live candidate is accounted straight from them, with no duplicate
// encode. Steady-state observation performs zero heap allocations.
//
//dbi:hotpath
func (c *Controller) Observe(b bus.Burst, cost bus.Cost, next bus.LineState) {
	for i := range c.cands {
		cd := &c.cands[i]
		if i == c.live {
			cd.win = cd.win.Add(cost)
			cd.state = next
			continue
		}
		// Compiled shadow encode: the candidate's kernel advances its chain
		// in one call — pattern, cost and post-burst state all from the
		// packed representation, routing decided at compile time.
		sc, st := cd.kern.Advance(cd.state, b)
		cd.win = cd.win.Add(sc)
		cd.state = st
	}
	c.bursts++
	c.inWin++
	if c.inWin >= c.cfg.Window {
		c.decide(next)
	}
}

// decide compares the trailing-window costs and applies the switch
// protocol, then opens a fresh window.
//
//dbi:hotpath
func (c *Controller) decide(next bus.LineState) {
	liveCost := c.cfg.Weights.Cost(c.cands[c.live].win)
	best, bestCost := c.live, liveCost
	for i := range c.cands {
		if cost := c.cfg.Weights.Cost(c.cands[i].win); cost < bestCost {
			best, bestCost = i, cost
		}
	}
	if best != c.live && bestCost < liveCost*(1-c.cfg.Margin) {
		from := c.cands[c.live].name
		c.live = best
		c.switches++
		// The switch protocol: every shadow chain re-seeds at the live
		// wire state the incoming scheme inherits, so the next window
		// compares all candidates from shared ground truth.
		for i := range c.cands {
			c.cands[i].state = next
		}
		if c.cfg.OnSwitch != nil {
			c.cfg.OnSwitch(Switch{
				Lane:    c.cfg.Lane,
				From:    from,
				To:      c.cands[c.live].name,
				Burst:   c.bursts,
				Ordinal: c.switches,
			})
		}
	}
	for i := range c.cands {
		c.cands[i].win = bus.Cost{}
	}
	c.inWin = 0
}

// Reseed restores the controller to a mid-stream decision point: candidate
// live becomes the live scheme, every shadow chain re-seeds at state, and
// the burst/switch counters resume at the given values. This is exactly
// what the switch protocol does at a scheme change — all chains collapse
// onto the live wire state and a fresh window opens — applied here by the
// serving tier when it rebuilds a resumable session from a client's claimed
// wire state. Window accumulators clear: a rebuilt controller compares
// candidates from the re-seed point on, not from a window it no longer has.
func (c *Controller) Reseed(live int, state bus.LineState, bursts, switches int) error {
	if live < 0 || live >= len(c.cands) {
		return fmt.Errorf("adapt: live candidate %d out of range (have %d)", live, len(c.cands))
	}
	if bursts < 0 || switches < 0 {
		return fmt.Errorf("adapt: negative reseed counters (%d bursts, %d switches)", bursts, switches)
	}
	c.live = live
	for i := range c.cands {
		c.cands[i].state = state
		c.cands[i].win = bus.Cost{}
	}
	c.inWin = 0
	c.bursts = bursts
	c.switches = switches
	return nil
}

// Reset implements dbi.Adapter: shadow chains return to the idle state,
// windows clear, and the first candidate becomes live again.
func (c *Controller) Reset() {
	for i := range c.cands {
		c.cands[i].state = bus.InitialLineState
		c.cands[i].win = bus.Cost{}
	}
	c.live = 0
	c.inWin = 0
	c.bursts = 0
	c.switches = 0
}

// String summarises the controller for diagnostics.
func (c *Controller) String() string {
	return fmt.Sprintf("adapt{live=%s window=%d margin=%.2f switches=%d candidates=%s}",
		c.Scheme(), c.cfg.Window, c.cfg.Margin, c.switches, strings.Join(c.Candidates(), ","))
}
