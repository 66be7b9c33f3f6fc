//go:build !race

package gate

// raceEnabled skips allocation bounds under the race detector; see
// race_test.go.
const raceEnabled = false
