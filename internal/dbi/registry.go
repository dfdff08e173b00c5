package dbi

import (
	"fmt"
	"sync"
)

// Factory constructs one instance of a coding scheme for the given weights.
// Schemes that take no weights must ignore w (and must not fail on invalid
// weights); weighted schemes validate w and report unusable values.
type Factory func(w Weights) (Encoder, error)

var (
	regMu    sync.RWMutex
	registry = make(map[string]Factory)
	regOrder []string
)

// Register adds a named scheme factory to the registry, making the scheme
// constructible by name through Lookup and visible in Names. Names are case
// sensitive and conventionally upper case. Register panics on an empty name
// or a duplicate registration: both are programming errors, and failing
// loudly at init time beats one package silently shadowing another's
// scheme. Every factory must return a pure encoder (see Encoder):
// TestRegisteredSchemesArePure holds each registered scheme to it.
func Register(name string, f Factory) {
	if name == "" {
		panic("dbi: Register with empty scheme name")
	}
	if f == nil {
		panic(fmt.Sprintf("dbi: Register(%q) with nil factory", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("dbi: scheme %q registered twice", name))
	}
	registry[name] = f
	regOrder = append(regOrder, name)
}

// Lookup constructs the named scheme. Weighted schemes ("GREEDY", "OPT",
// "QUANTISED", "EXHAUSTIVE") validate and use w; the others ignore it.
// Unknown names report the full set of registered names, so CLI users see
// their options in the error itself.
func Lookup(name string, w Weights) (Encoder, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dbi: unknown scheme %q (registered: %v)", name, Names())
	}
	return f(w)
}

// Names lists every registered scheme name in registration order, built-ins
// first. This is the -scheme vocabulary of the CLIs.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(regOrder))
	copy(out, regOrder)
	return out
}

// The nine built-in schemes register themselves at init, in presentation
// order. Weighted factories validate; QUANTISED additionally snaps the
// weights to the best 3-bit integer ratio, mirroring the configurable
// hardware design.
func init() {
	Register("RAW", func(Weights) (Encoder, error) { return Raw{}, nil })
	Register("DC", func(Weights) (Encoder, error) { return DC{}, nil })
	Register("AC", func(Weights) (Encoder, error) { return AC{}, nil })
	Register("ACDC", func(Weights) (Encoder, error) { return ACDC{}, nil })
	Register("GREEDY", func(w Weights) (Encoder, error) {
		if err := w.Validate(); err != nil {
			return nil, err
		}
		return NewGreedy(w), nil
	})
	Register("OPT", func(w Weights) (Encoder, error) {
		if err := w.Validate(); err != nil {
			return nil, err
		}
		return NewOpt(w), nil
	})
	Register("OPT-FIXED", func(Weights) (Encoder, error) { return OptFixed(), nil })
	Register("QUANTISED", func(w Weights) (Encoder, error) {
		q, err := QuantizeWeights(w)
		if err != nil {
			return nil, err
		}
		return q, nil
	})
	Register("EXHAUSTIVE", func(w Weights) (Encoder, error) {
		if err := w.Validate(); err != nil {
			return nil, err
		}
		return Exhaustive{Weights: w}, nil
	})
}
