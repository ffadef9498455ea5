package experiments

import (
	"repro/internal/setcover"
	"repro/internal/submodular"
)

// toCoverage views a set-cover instance as the coverage utility whose
// universe is the set indices.
func toCoverage(ins *setcover.Instance) *submodular.Coverage {
	return submodular.NewCoverage(ins.N, ins.Sets, nil)
}
