// Package detrand enforces the determinism contract: inside the
// packages whose tested contract is a byte-identical pick sequence
// across solve paths, restarts, and replays, randomness must flow
// through an injected, seeded *rand.Rand, and wall-clock time must not
// influence decisions.
//
// Forbidden in determinism-critical packages (non-test files):
//
//   - package-level math/rand (and math/rand/v2) functions — rand.Intn,
//     rand.Float64, rand.Shuffle, ... — which read the shared global
//     generator and make pick sequences depend on unrelated callers;
//   - rand.Seed, which mutates that global state for everyone;
//   - time.Now, which smuggles wall-clock nondeterminism into code whose
//     differential tests assert byte-identical outputs.
//
// Constructors (rand.New, rand.NewSource, rand.NewZipf, and the v2
// generator constructors) stay allowed: building a seeded generator is
// exactly the sanctioned pattern. Tests are exempt (the loader never
// feeds _test.go files), as is internal/experiments, whose timing
// harness legitimately reads the clock — it is not in the critical set.
package detrand

import (
	"go/ast"
	"path"

	"repro/internal/analysis"
)

// Analyzer is the detrand check.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "forbid global math/rand state and time.Now in determinism-critical packages",
	Run:  run,
}

// criticalPackages are the packages whose differential tests pin
// byte-identical pick sequences (see DESIGN.md §1 and the conformance
// matrix): the solver stack from the oracles up through the online
// engine.
var criticalPackages = map[string]bool{
	"budget":     true,
	"sched":      true,
	"submodular": true,
	"bipartite":  true,
	"setcover":   true,
	"online":     true,
	"schedexact": true,
}

// allowedConstructors build seeded generators rather than consuming the
// global one.
var allowedConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true, // takes an explicit *rand.Rand
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !criticalPackages[path.Base(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := analysis.PkgFuncCall(pass.TypesInfo, call)
			if !ok {
				return true
			}
			switch pkgPath {
			case "math/rand", "math/rand/v2":
				if allowedConstructors[name] {
					return true
				}
				pass.Reportf(call.Pos(),
					"global math/rand.%s in determinism-critical package %s: byte-identical pick sequences are the tested contract, inject a seeded *rand.Rand instead",
					name, pass.Pkg.Name())
			case "time":
				if name == "Now" {
					pass.Reportf(call.Pos(),
						"time.Now in determinism-critical package %s: wall-clock reads break replayable, byte-identical solves; thread times in as data",
						pass.Pkg.Name())
				}
			}
			return true
		})
	}
	return nil
}
