//go:build race

package gate

// raceEnabled skips allocation bounds: the race detector's instrumentation
// allocates on its own account, so a bytes-per-op bound would measure it
// rather than the gateway.
const raceEnabled = true
