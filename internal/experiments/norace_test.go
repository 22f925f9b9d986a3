//go:build !race

package experiments

// raceEnabled reports a build instrumented by the race detector, whose
// server runs about ten times slower.
const raceEnabled = false
