//go:build !race

package leakcheck

// raceEnabled reports whether the race detector is compiled in.
// TestCheckpointSweepSecureSchemes sweeps 32 seeds instead of 256 under
// -race: the detector's ~10x slowdown puts the full sweep past the
// default 10-minute test timeout on a 2-vCPU host, and more seeds
// exercise no further interleavings of the sweep's few goroutines.
const raceEnabled = false
