package analysis

import "testing"

// contractFixture mirrors DefaultContract for the contractmod fixture.
var contractFixture = ContractConfig{
	PackagePath:  "contractmod",
	Encoder:      "Encoder",
	MaskEncoder:  "MaskEncoder",
	RegisterFunc: "Register",
	GoldenFile:   "golden_test.go",
	FuzzFile:     "fuzz_test.go",
	FuzzFunc:     "FuzzMaskEquivalence",
	RegistryIter: "Names",
}

// TestContractFixture seeds one scheme violating every clause (Bad), one
// missing only golden coverage (NoGolden) and one compliant (Good), and
// asserts exactly the seeded violations surface.
func TestContractFixture(t *testing.T) {
	tree := fixtureTree(t, "contractmod")
	diags, err := Contract(tree, contractFixture)
	if err != nil {
		t.Fatal(err)
	}
	checkDiags(t, diags, []wantDiag{
		{"enc.go", 51, "contract", "Bad implements Encoder but not MaskEncoder"},
		{"enc.go", 51, "contract", "Bad is not constructed by any Register factory"},
		{"enc.go", 51, "contract", "Bad is not covered by FuzzMaskEquivalence"},
		{"enc.go", 51, "contract", "Bad is not referenced by golden_test.go"},
		{"enc.go", 61, "contract", "NoGolden is not referenced by golden_test.go"},
	})
}

// kernelFixture adds the kernel-equivalence clause over the kernelmod
// fixture; contractFixture leaves KernelFuzzFunc empty, covering the
// disabled path.
var kernelFixture = ContractConfig{
	PackagePath:    "kernelmod",
	Encoder:        "Encoder",
	MaskEncoder:    "MaskEncoder",
	RegisterFunc:   "Register",
	GoldenFile:     "golden_test.go",
	FuzzFile:       "fuzz_test.go",
	FuzzFunc:       "FuzzMaskEquivalence",
	RegistryIter:   "Names",
	KernelFuzzFile: "kernel_test.go",
	KernelFuzzFunc: "FuzzKernelEquivalence",
}

// TestKernelContractFixture seeds a scheme (NoKernel) that satisfies every
// legacy clause but is absent from the kernel-equivalence fuzz target —
// whose body names schemes directly rather than sweeping the registry — and
// asserts exactly that violation surfaces, at the type's declaration.
func TestKernelContractFixture(t *testing.T) {
	tree := fixtureTree(t, "kernelmod")
	diags, err := Contract(tree, kernelFixture)
	if err != nil {
		t.Fatal(err)
	}
	checkDiags(t, diags, []wantDiag{
		{"enc.go", 53, "contract", "NoKernel is not covered by FuzzKernelEquivalence in kernel_test.go"},
	})
}
