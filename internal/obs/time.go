package obs

import "time"

// Now and Since are the observability layer's wall-clock reads, for code
// in the clock-disciplined core packages (internal/{platform,sched,repl,
// gate,storage}) that needs to *measure* real elapsed time — latency
// histograms, the journal's per-flush commit latency — without *acting*
// on wall time for any state decision.
//
// The determinism contract (docs/TESTING.md) splits time into two roles:
// time that logic acts on (timeouts, TTLs, tickers, timestamps that enter
// state) must flow through an injected vclock.Clock so simulation controls
// it; time that is merely observed may read the wall through these
// helpers, because metric samples never feed back into state. ci/clocklint
// bans time.Now/time.Since in the core packages; obs.Now/obs.Since are the
// sanctioned, greppable spelling of "this is a measurement, not a decision".

// Now returns the wall time, for pairing with Since around a measured
// region.
func Now() time.Time { return time.Now() }

// Since returns the wall time elapsed since start.
func Since(start time.Time) time.Duration { return time.Since(start) }
