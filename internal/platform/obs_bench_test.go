package platform

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Observability overhead benchmarks: the same journaled Submit path run
// with a nil registry (every metric site a branch-only no-op) and with a
// live registry recording the full histogram/counter surface. The
// acceptance bar is instrumented within 5% of bare; this pair is the
// direct measurement of it:
//
//	go test -run='^$' -bench='BenchmarkSubmit(Bare|Instrumented)' ./internal/platform
//
// Per PR the same cost shows end to end as trace.overhead_ratio in the
// repo benchmark's traced run (`bash benchmark/run.sh --trace 1`).
//
// SyncNever keeps the comparison CPU-bound; on the fsync-bound policies
// disk latency hides any instrumentation cost.
func benchSubmitObs(b *testing.B, reg *obs.Registry) {
	b.Helper()
	db, err := storage.Open(b.TempDir(), storage.Options{Sync: storage.SyncNever, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	j, err := OpenJournalOpts(db, JournalOptions{Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	engine, err := NewEngineOpts(EngineOptions{Clock: vclock.NewWall(), Journal: j, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	p, err := engine.EnsureProject(ProjectSpec{Name: "bench", Redundancy: 1})
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]TaskSpec, b.N)
	for i := range specs {
		specs[i] = TaskSpec{ExternalID: fmt.Sprintf("t-%d", i)}
	}
	tasks, err := engine.AddTasks(p.ID, specs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Submit(tasks[i].ID, "w", "yes"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubmitBare(b *testing.B)         { benchSubmitObs(b, nil) }
func BenchmarkSubmitInstrumented(b *testing.B) { benchSubmitObs(b, obs.New()) }
