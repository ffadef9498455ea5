// Fixture: a determinism-critical package (its name is in the critical
// set). Global math/rand state and time.Now must be flagged; injected
// generators and seeded constructors must not.
package budget

import (
	"math/rand"
	"time"
)

// bad consumes the process-global generator and the wall clock — the
// exact nondeterminism the differential solve-path tests would miss
// intermittently.
func bad() int {
	rand.Seed(42)                      // want `global math/rand\.Seed`
	x := rand.Intn(10)                 // want `global math/rand\.Intn`
	y := rand.Float64()                // want `global math/rand\.Float64`
	rand.Shuffle(3, func(i, j int) {}) // want `global math/rand\.Shuffle`
	if time.Now().IsZero() {           // want `time\.Now in determinism-critical`
		return 0
	}
	return x + int(y)
}

// good is the sanctioned pattern: a seeded generator, injected or built
// locally from an explicit seed, with all draws going through it.
func good(rng *rand.Rand) int {
	local := rand.New(rand.NewSource(7))
	z := rand.NewZipf(local, 1.5, 1, 100)
	return rng.Intn(10) + local.Intn(3) + int(z.Uint64())
}

// durations that do not read the clock are fine.
func goodTime(d time.Duration) time.Duration { return d * 2 }
