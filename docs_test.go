package dbiopt_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// readDoc loads a repo-level document for the freshness checks.
func readDoc(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatalf("reading %s: %v", name, err)
	}
	return string(data)
}

// docSection returns the section of a repo-level document that starts at
// the given heading line and runs to the next level-2 heading.
func docSection(t *testing.T, name, heading string) string {
	t.Helper()
	doc := readDoc(t, name)
	start := strings.Index(doc, heading)
	if start < 0 {
		t.Fatalf("%s has no '%s' section", name, heading)
	}
	end := strings.Index(doc[start+1:], "\n## ")
	if end < 0 {
		return doc[start:]
	}
	return doc[start : start+1+end]
}

// cmdBinaries lists the binaries under cmd/.
func cmdBinaries(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no binaries under cmd/")
	}
	return names
}

// TestDesignLayeringMentionsAllBinaries is the docs-freshness gate: adding
// a binary under cmd/ without teaching DESIGN.md's §1 layering section
// about it fails here (and in CI). The layering diagram is the map a new
// reader orients by, so it must never silently fall behind the tree.
func TestDesignLayeringMentionsAllBinaries(t *testing.T) {
	layering := docSection(t, "DESIGN.md", "## 1. Layering")
	for _, bin := range cmdBinaries(t) {
		if !strings.Contains(layering, bin) {
			t.Errorf("DESIGN.md §1 layering does not mention cmd/%s", bin)
		}
	}
}

// TestReadmeMentionsAllBinaries keeps the README's tool and flag tables in
// step with the tree the same way.
func TestReadmeMentionsAllBinaries(t *testing.T) {
	readme := readDoc(t, "README.md")
	for _, bin := range cmdBinaries(t) {
		if !strings.Contains(readme, bin) {
			t.Errorf("README.md does not mention cmd/%s", bin)
		}
	}
}

// exampleDirs lists the walkthroughs under examples/.
func exampleDirs(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no walkthroughs under examples/")
	}
	return names
}

// TestReadmeMentionsAllExamples extends the docs-freshness gate beyond
// cmd/: every walkthrough under examples/ must appear in README.md, so a
// new example cannot land invisible to readers (the CI docs-freshness
// step enforces the same rule).
func TestReadmeMentionsAllExamples(t *testing.T) {
	readme := readDoc(t, "README.md")
	for _, ex := range exampleDirs(t) {
		if !strings.Contains(readme, ex) {
			t.Errorf("README.md does not mention examples/%s", ex)
		}
	}
}

// TestDocsNameOnlyExistingPaths is the other direction of the
// docs-freshness gate: every internal package that DESIGN.md §1 or the
// README's Layout section names, and every walkthrough on the Layout's
// examples/ line, must exist on disk, so deleting a package or an example
// without updating the maps fails here (and in CI).
func TestDocsNameOnlyExistingPaths(t *testing.T) {
	layout := docSection(t, "README.md", "## Layout")
	pkgRE := regexp.MustCompile(`internal/[a-z0-9_]+`)
	for where, text := range map[string]string{
		"DESIGN.md §1":     docSection(t, "DESIGN.md", "## 1. Layering"),
		"README.md Layout": layout,
	} {
		for _, pkg := range pkgRE.FindAllString(text, -1) {
			if fi, err := os.Stat(pkg); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which does not exist", where, pkg)
			}
		}
	}
	examples := regexp.MustCompile("(?m)^- `examples/`[^:\n]*:(.*)$").FindStringSubmatch(layout)
	if examples == nil {
		t.Fatal("README.md Layout has no examples/ line")
	}
	names := regexp.MustCompile("`([a-z0-9_]+)`").FindAllStringSubmatch(examples[1], -1)
	if len(names) == 0 {
		t.Fatal("README.md Layout examples/ line lists no walkthroughs")
	}
	for _, m := range names {
		if fi, err := os.Stat("examples/" + m[1]); err != nil || !fi.IsDir() {
			t.Errorf("README.md Layout lists examples/%s, which does not exist", m[1])
		}
	}
}
