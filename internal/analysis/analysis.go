// Package analysis is the repo's stdlib-only static analysis suite, run by
// cmd/dbivet and the dbivet CI job. It enforces, at compile time, the
// invariants the runtime test suite can only sample:
//
//   - escape: no heap escape inside a //dbi:hotpath function. The hot
//     paths' zero-allocation guarantees (DESIGN.md §8/§9) are pinned at
//     runtime by AllocsPerRun tests that skip themselves under -race; this
//     gate reads the compiler's own escape analysis instead, so it holds on
//     every build configuration. Cold-path allocations are waived line by
//     line with //dbi:allow-escape <reason>.
//   - contract: every Encoder implementation in the scheme package also
//     implements the bit-parallel MaskEncoder fast path, is constructible
//     through the registry, and is pinned by the golden tests and the mask
//     equivalence fuzz target, with no exceptions.
//   - baseline: bench_baseline.json entries, declared Benchmark functions
//     and the CI bench-gate selection agree in both directions, so a
//     renamed benchmark or a stale baseline entry fails lint instead of
//     surfacing as a runtime bench-gate miss.
//   - hygiene: //dbi: directives outside the known grammar are errors, and
//     every exported identifier of the dbiopt facade carries a doc comment.
//
// Everything here uses only go/parser, go/ast, go/types (with the source
// importer) and the go command already required to build the module — by
// design, the repo's zero-external-dependency policy extends to its static
// checks (no x/tools, no staticcheck).
package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, positioned at a file and line of the
// analyzed tree. File is relative to the analysis root when the file lies
// under it.
type Diagnostic struct {
	File     string
	Line     int
	Analyzer string // "escape", "contract", "baseline" or "hygiene"
	Message  string
}

// String renders the finding in the file:line: analyzer: message shape the
// CI log and editors understand.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.File, d.Line, d.Analyzer, d.Message)
}

// sortDiagnostics orders findings by file, line, analyzer and message, so
// runs are deterministic and diffable.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// ModuleRoot walks upward from dir to the nearest directory containing a
// go.mod, the root every analyzer resolves paths against.
func ModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// modulePath reads the module path from the go.mod at root.
func modulePath(root string) (string, error) {
	src, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s/go.mod", root)
}
