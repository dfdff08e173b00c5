// Package contractmod is a scheme-contract fixture: a miniature registry
// with one fully compliant scheme (Good), one that violates every clause
// (Bad), and one missing only its golden coverage and registered through a
// constructor (NoGolden).
package contractmod

// Mask is the fixture's packed pattern type.
type Mask uint64

// Encoder is the fixture's scheme interface.
type Encoder interface {
	Name() string
	Encode(b []byte) []bool
}

// MaskEncoder is the fixture's fast-path interface.
type MaskEncoder interface {
	EncodeMask(b []byte) (Mask, bool)
}

var registry = map[string]func() Encoder{}

// Register adds a scheme factory under a name.
func Register(name string, factory func() Encoder) {
	registry[name] = factory
}

// Names lists the registered scheme names.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	return names
}

// Good satisfies every clause of the contract.
type Good struct{}

// Name implements Encoder.
func (Good) Name() string { return "good" }

// Encode implements Encoder.
func (Good) Encode(b []byte) []bool { return make([]bool, len(b)) }

// EncodeMask implements MaskEncoder.
func (Good) EncodeMask(b []byte) (Mask, bool) { return 0, true }

// Bad violates every clause: no mask fast path, never registered, absent
// from the golden and fuzz files.
type Bad struct{}

// Name implements Encoder.
func (Bad) Name() string { return "bad" }

// Encode implements Encoder.
func (Bad) Encode(b []byte) []bool { return make([]bool, len(b)) }

// NoGolden is compliant except for golden coverage, and is registered
// through its constructor rather than a literal.
type NoGolden struct{}

// NewNoGolden constructs a NoGolden.
func NewNoGolden() NoGolden { return NoGolden{} }

// Name implements Encoder.
func (NoGolden) Name() string { return "nogolden" }

// Encode implements Encoder.
func (NoGolden) Encode(b []byte) []bool { return make([]bool, len(b)) }

// EncodeMask implements MaskEncoder.
func (NoGolden) EncodeMask(b []byte) (Mask, bool) { return 0, true }

func init() {
	Register("good", func() Encoder { return Good{} })
	Register("nogolden", func() Encoder { return NewNoGolden() })
}
