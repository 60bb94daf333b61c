//go:build !race

package ring

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
