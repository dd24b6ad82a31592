//go:build race

package core

// raceEnabled reports a build under the race detector, whose instrumented
// numeric loops make the longest differential runs too slow to repeat
// there; the concurrent paths they share run under it in full.
const raceEnabled = true
