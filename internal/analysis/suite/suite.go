// Package suite aggregates the powersched contract analyzers in the
// order diagnostics should be reported. cmd/powerschedlint drives this
// set; adding an analyzer here wires it into standalone runs, the
// go vet -vettool mode, and scripts/lint.sh at once.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/detrand"
	"repro/internal/analysis/errsentinel"
	"repro/internal/analysis/faultfsonly"
	"repro/internal/analysis/netfaultonly"
	"repro/internal/analysis/nopaniccost"
)

// Analyzers returns the full contract-linting suite.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detrand.Analyzer,
		nopaniccost.Analyzer,
		faultfsonly.Analyzer,
		netfaultonly.Analyzer,
		errsentinel.Analyzer,
	}
}
