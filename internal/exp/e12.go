package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// E12SnapshotRecovery measures what the snapshot checkpointer buys: the
// journal-only engine's restart cost grows with the full event history,
// while a checkpointed engine recovers from the latest snapshot plus a
// bounded tail. For each history length the same workload (redundancy-1
// tasks, each retired by one submission) runs twice — once bare, once
// with a checkpointer cutting every `interval` events — and the restart
// is timed cold: open store, open journal, rebuild engine.
//
// With Config.OutDir set, the rows are also written as
// BENCH_recovery.json for the CI recovery gate.
func E12SnapshotRecovery(cfg Config) (Result, error) {
	histories := []int{2500, 10000}
	interval := 1000
	if cfg.Quick {
		histories = []int{300, 1000}
		interval = 150
	}
	res := Result{
		ID:      "E12",
		Title:   "snapshot checkpoints — restart replay bounded by tail, not history",
		Headers: []string{"history", "mode", "recovery", "replayed", "journal bytes", "store bytes", "snapshot bytes"},
	}

	var records []RecoveryRecord
	for _, n := range histories {
		for _, withSnapshots := range []bool{false, true} {
			rec, err := runRecoveryScenario(n, interval, withSnapshots)
			if err != nil {
				return res, err
			}
			res.Rows = append(res.Rows, []string{
				itoa(rec.History), rec.Mode,
				(time.Duration(rec.RecoverySeconds * float64(time.Second))).Round(10 * time.Microsecond).String(),
				fmt.Sprintf("%d events", rec.ReplayedEvents),
				fmt.Sprintf("%d", rec.JournalBytes),
				fmt.Sprintf("%d", rec.StoreBytes),
				fmt.Sprintf("%d", rec.SnapshotBytes),
			})
			records = append(records, rec)
		}
	}

	if err := CheckRecoveryBounded(records); err != nil {
		res.Notes = append(res.Notes, "FAIL: "+err.Error())
	} else {
		res.Notes = append(res.Notes,
			"gate passed: snapshot-mode replay is bounded by the checkpoint interval; journal-only replay is O(history)")
	}
	if cfg.OutDir != "" {
		buf, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			return res, err
		}
		path := filepath.Join(cfg.OutDir, "BENCH_recovery.json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return res, err
		}
		res.Notes = append(res.Notes, "wrote "+path)
	}
	return res, nil
}

// runRecoveryScenario drives n retired-task events through a journaled
// engine (optionally checkpointed every interval events), shuts it down
// cleanly, and times the cold restart.
func runRecoveryScenario(n, interval int, withSnapshots bool) (RecoveryRecord, error) {
	rec := RecoveryRecord{History: n, Mode: "replay", Interval: interval}
	if withSnapshots {
		rec.Mode = "snapshot"
	}
	dir, err := os.MkdirTemp("", "reprowd-e12-*")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(dir)

	// SyncNever keeps the build phase disk-light: E12 measures recovery,
	// not append durability (that is E11's subject), and the clean Close
	// flushes everything either way.
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		return rec, err
	}
	journal, err := platform.OpenJournal(db)
	if err != nil {
		db.Close()
		return rec, err
	}
	engine, err := platform.NewEngineOpts(platform.EngineOptions{
		Clock:   vclock.NewVirtual(),
		Journal: journal,
	})
	if err != nil {
		db.Close()
		return rec, err
	}
	var cp *platform.Checkpointer
	if withSnapshots {
		cp, err = platform.NewCheckpointer(engine, platform.CheckpointOptions{
			EveryEvents: uint64(interval),
			// E12's stores are far below the production compaction floor;
			// lower it so truncated prefixes are actually reclaimed.
			CompactMinBytes: 32 << 10,
		})
		if err != nil {
			db.Close()
			return rec, err
		}
	}
	p, err := engine.EnsureProject(platform.ProjectSpec{Name: "e12", Redundancy: 1})
	if err != nil {
		db.Close()
		return rec, err
	}
	specs := make([]platform.TaskSpec, n)
	for i := range specs {
		specs[i] = platform.TaskSpec{ExternalID: fmt.Sprintf("t-%d", i)}
	}
	tasks, err := engine.AddTasks(p.ID, specs)
	if err != nil {
		db.Close()
		return rec, err
	}
	for i, task := range tasks {
		if _, err := engine.Submit(task.ID, fmt.Sprintf("w-%d", i%7), "yes"); err != nil {
			db.Close()
			return rec, err
		}
	}
	if cp != nil {
		// Deterministic cut covering the history (background policy cuts
		// also ran along the way; this pins the final cut point), then a
		// genuine tail of post-snapshot traffic that recovery must replay.
		if err := cp.CheckpointNow(); err != nil {
			db.Close()
			return rec, err
		}
		tailN := interval / 2
		tailSpecs := make([]platform.TaskSpec, tailN)
		for i := range tailSpecs {
			tailSpecs[i] = platform.TaskSpec{ExternalID: fmt.Sprintf("tail-%d", i)}
		}
		tailTasks, err := engine.AddTasks(p.ID, tailSpecs)
		if err != nil {
			db.Close()
			return rec, err
		}
		for i, task := range tailTasks {
			if _, err := engine.Submit(task.ID, fmt.Sprintf("w-%d", i%7), "yes"); err != nil {
				db.Close()
				return rec, err
			}
		}
	}
	journal.Close()
	if cp != nil {
		cp.Close()
		if st := cp.Stats(); st.LastError != "" || st.Checkpoints == 0 {
			db.Close()
			return rec, fmt.Errorf("exp e12: checkpointer: %+v", st)
		}
	}
	if err := db.Close(); err != nil {
		return rec, err
	}

	// Cold restart: everything from disk.
	start := time.Now()
	db2, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		return rec, err
	}
	defer db2.Close()
	journal2, err := platform.OpenJournal(db2)
	if err != nil {
		return rec, err
	}
	defer journal2.Close()
	engine2, err := platform.NewEngineOpts(platform.EngineOptions{
		Clock:   vclock.NewVirtual(),
		Journal: journal2,
	})
	if err != nil {
		return rec, err
	}
	rec.RecoverySeconds = time.Since(start).Seconds()

	rec.ReplayedEvents = journal2.Len()
	if info, ok, err := storage.ReadSnapshotInfo(db2, platform.SnapshotPrefix); err != nil {
		return rec, err
	} else if ok {
		rec.ReplayedEvents = journal2.Len() - info.Seq
		rec.SnapshotBytes = info.Bytes
	}
	if err := db2.Scan("j/", func(_ string, val []byte) bool {
		rec.JournalBytes += int64(len(val))
		return true
	}); err != nil {
		return rec, err
	}
	rec.StoreBytes = db2.Stats().TotalBytes

	// Sanity: recovery actually rebuilt the workload (history + tail).
	want := n
	if withSnapshots {
		want += interval / 2
	}
	st, err := engine2.Stats(p.ID)
	if err != nil {
		return rec, err
	}
	if st.CompletedTasks != want || st.TaskRuns != want {
		return rec, fmt.Errorf("exp e12: recovered %d/%d completed tasks, want %d", st.CompletedTasks, st.TaskRuns, want)
	}
	return rec, nil
}
