//go:build !race

package experiments

// raceEnabled reports whether the race detector is active; the registry
// smoke test trims to its -short subset under race to keep CI's race job
// fast.
const raceEnabled = false
