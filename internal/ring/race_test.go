//go:build race

package ring

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// puts at random, so the arena's reuse and zero-allocation assertions hold
// only without it (the standard library guards its AllocsPerRun checks the
// same way).
const raceEnabled = true
