//go:build !race

package pipeline_test

// raceEnabled reports whether the race detector is compiled in.
// TestResetEqualsFresh takes one or two of each kind of input under
// -race: the detector's ~10x slowdown would otherwise push the package
// past the 10-minute test timeout, and a single-goroutine core has no
// interleavings for it to find.
const raceEnabled = false
