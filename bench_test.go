package reprowd

// The root benchmarks regenerate experiments E1–E10 (indexed in
// docs/ARCHITECTURE.md § "Experiments and gates") — the reproduction's
// tables and figures — via the internal/exp harness. `go test -bench=.
// -benchmem` at the module root reruns the paper's evaluation end to
// end; `cmd/reprowd-bench` prints the full tables at paper scale.
// Platform performance is measured by benchmark/ (BENCHMARK.json), not
// here.

import (
	"testing"

	"repro/internal/exp"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(id, exp.Config{Seed: 20160903, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
	}
}

// BenchmarkE1_QuickstartFreshVsRerun regenerates E1 (Figure 2: fresh run
// vs cached rerun).
func BenchmarkE1_QuickstartFreshVsRerun(b *testing.B) { benchExperiment(b, "e1") }

// BenchmarkE2_ExtendReuse regenerates E2 (Figure 3: extension publishes
// only the delta; lineage queries).
func BenchmarkE2_ExtendReuse(b *testing.B) { benchExperiment(b, "e2") }

// BenchmarkE3_CrashRerun regenerates E3 (crash-and-rerun fault injection).
func BenchmarkE3_CrashRerun(b *testing.B) { benchExperiment(b, "e3") }

// BenchmarkE4_CrowdERSweep regenerates E4 (CrowdER hybrid join threshold
// sweep).
func BenchmarkE4_CrowdERSweep(b *testing.B) { benchExperiment(b, "e4") }

// BenchmarkE5_TransitiveJoin regenerates E5 (transitivity savings and
// ordering ablation).
func BenchmarkE5_TransitiveJoin(b *testing.B) { benchExperiment(b, "e5") }

// BenchmarkE6_QualitySweep regenerates E6 (quality-control comparison).
func BenchmarkE6_QualitySweep(b *testing.B) { benchExperiment(b, "e6") }

// BenchmarkE7_Storage regenerates E7 (storage engine characterization).
func BenchmarkE7_Storage(b *testing.B) { benchExperiment(b, "e7") }

// BenchmarkE8_PlatformBindings regenerates E8 (in-process vs HTTP REST).
func BenchmarkE8_PlatformBindings(b *testing.B) { benchExperiment(b, "e8") }

// BenchmarkE9_SortMax regenerates E9 (sort/max quality vs budget).
func BenchmarkE9_SortMax(b *testing.B) { benchExperiment(b, "e9") }

// BenchmarkE10_TurkitComparison regenerates E10 (cache keying ablation vs
// TurKit).
func BenchmarkE10_TurkitComparison(b *testing.B) { benchExperiment(b, "e10") }
