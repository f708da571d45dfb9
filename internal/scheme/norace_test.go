//go:build !race

package scheme

// raceEnabled reports whether the tests run under the race detector,
// which drops sync.Pool puts at random and so makes allocation counts
// nondeterministic.
const raceEnabled = false
