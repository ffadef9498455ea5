// Package experiments regenerates, for every theorem in the thesis, an
// empirical table whose shape validates the claimed bound (DESIGN.md §2).
//
// Each experiment Eк (and ablation Aк) is a pure function of a Config:
// deterministic given the seed, with trials fanned out across CPUs using
// per-trial derived RNGs. Tables render as markdown (stats.Table) and are
// recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/stats"
)

// Config parameterizes a run.
type Config struct {
	Seed  int64
	Quick bool // smaller sweeps/trials for CI
}

// Experiment couples an ID (the DESIGN.md index) with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) *stats.Table
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Lemma 2.1.2 — budgeted submodular greedy bicriteria", E1},
		{"E2", "Theorem 2.2.1 — schedule-all O(log n) vs baselines", E2},
		{"E3", "Theorem 2.3.1 — prize-collecting (1-ε)Z bicriteria", E3},
		{"E4", "Theorem 2.3.3 — exact-threshold O(log n + log Δ)", E4},
		{"E5", "Classical secretary 1/e rule", E5},
		{"E6", "Theorem 3.2.5 — monotone submodular secretary", E6},
		{"E7", "Theorem 3.2.8 — non-monotone submodular secretary (8e²)", E7},
		{"E8", "Theorem 3.1.2 — matroid submodular secretary", E8},
		{"E9", "Theorem 3.1.3 — knapsack submodular secretary", E9},
		{"E10", "Theorem 3.5.1/§3.5.2 — subadditive secretary & hardness", E10},
		{"E11", "Theorem 3.6.1 — bottleneck (min) secretary", E11},
		{"E12", "Theorem .1.2 — Set-Cover hardness reduction", E12},
		{"E13", "Theorem .2.1 — prize-collecting gap DP vs greedy", E13},
		{"E14", "Prior work [5,31] — online power-down competitive ratios", E14},
		{"E15", "§3.6 — γ-oblivious multiple-choice secretary", E15},
		{"E16", "Rolling-horizon online engine vs clairvoyant offline", E16},
		{"E17", "Scenario matrix — greedy vs exact optimum per cost model", E17},
		{"A1", "Ablation — lazy vs plain greedy oracle calls", A1},
		{"A2", "Ablation — candidate interval policies", A2},
		{"A3", "Ablation — incremental matcher vs Hopcroft-Karp", A3},
		{"A4", "Ablation — ε sweep for schedule-all", A4},
	}
}

// RunAll executes the selected experiments (all if ids is empty) and
// writes their tables to w.
func RunAll(w io.Writer, cfg Config, ids []string) error {
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	ran := 0
	for _, e := range All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		tbl := e.Run(cfg)
		if _, err := tbl.WriteTo(w); err != nil {
			return err
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("experiments: no experiment matches %v", ids)
	}
	return nil
}

// splitmix64 is a tiny deterministic rand.Source64 (Steele et al.'s
// SplitMix64). rand.NewSource's lagged-Fibonacci generator burns a
// ~600-step seeding loop per construction, which dominated every
// experiment benchmark's profile (~78% of CPU samples) because parTrials
// derives a fresh RNG per trial; SplitMix64 seeds in one word write.
type splitmix64 uint64

// Uint64 implements rand.Source64.
func (s *splitmix64) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *splitmix64) Seed(seed int64) { *s = splitmix64(seed) }

// trialRNG returns the deterministic RNG for one trial index. The state is
// passed through the SplitMix64 finalizer first: seeding with raw
// multiples of the generator's own increment would make trial t+1's
// stream a one-draw shift of trial t's, not an independent replicate.
func trialRNG(seed int64, trial int) *rand.Rand {
	z := uint64(seed+7) + uint64(trial)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	src := splitmix64(z ^ (z >> 31))
	return rand.New(&src)
}

// parTrials runs fn for each trial across a fixed worker pool with a
// deterministic per-trial RNG (the stream depends only on seed and trial
// index, never on scheduling). fn must only write to trial-indexed
// storage.
func parTrials(trials int, seed int64, fn func(trial int, rng *rand.Rand)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > trials {
		workers = trials
	}
	if workers <= 1 {
		for i := 0; i < trials; i++ {
			fn(i, trialRNG(seed, i))
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < trials; i += workers {
				fn(i, trialRNG(seed, i))
			}
		}(w)
	}
	wg.Wait()
}

// pick returns q when quick, full otherwise.
func pick(cfg Config, full, q int) int {
	if cfg.Quick {
		return q
	}
	return full
}
