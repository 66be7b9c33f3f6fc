package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/platform"
	"repro/internal/repl"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// E13Replication measures the journal-shipping replication subsystem: a
// follower bootstrapping against a leader carrying `history` retired-task
// events must catch up via snapshot + tail (bounded by the checkpoint
// interval, not the history), then hold a bounded lag while the leader
// absorbs concurrent submit load, and finish byte-identical to the
// leader's exported state.
//
// With Config.OutDir set, the record is also written as BENCH_repl.json.
func E13Replication(cfg Config) (Result, error) {
	history, interval, steady := 10000, 1000, 3000
	if cfg.Quick {
		history, interval, steady = 1500, 200, 600
	}
	res := Result{
		ID:    "E13",
		Title: "journal-shipping replication — snapshot-bootstrapped catch-up and steady-state lag",
		Headers: []string{"history", "snapshot seq", "tail", "catch-up",
			"steady load", "max lag", "mean lag", "byte-identical"},
	}
	rec, err := runReplScenario(history, interval, steady)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, []string{
		itoa(rec.History),
		fmt.Sprintf("%d", rec.SnapshotSeq),
		fmt.Sprintf("%d events", rec.TailEvents),
		(time.Duration(rec.CatchupSeconds * float64(time.Second))).Round(10 * time.Microsecond).String(),
		fmt.Sprintf("%d events", rec.SteadyEvents),
		fmt.Sprintf("%d", rec.MaxLag),
		fmt.Sprintf("%.1f", rec.MeanLag),
		fmt.Sprintf("%v", rec.ByteIdentical),
	})
	if err := CheckReplBounded([]ReplRecord{rec}); err != nil {
		res.Notes = append(res.Notes, "FAIL: "+err.Error())
	} else {
		res.Notes = append(res.Notes,
			"gate passed: follower catch-up rides snapshot + tail (bounded by the checkpoint interval) and converges byte-identically under load")
	}
	if cfg.OutDir != "" {
		buf, err := json.MarshalIndent([]ReplRecord{rec}, "", "  ")
		if err != nil {
			return res, err
		}
		path := filepath.Join(cfg.OutDir, "BENCH_repl.json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return res, err
		}
		res.Notes = append(res.Notes, "wrote "+path)
	}
	return res, nil
}

// runReplScenario drives one leader/follower pair end to end.
func runReplScenario(history, interval, steady int) (ReplRecord, error) {
	rec := ReplRecord{History: history, Interval: interval, SteadyEvents: steady}
	dir, err := os.MkdirTemp("", "reprowd-e13-*")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(dir)

	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		return rec, err
	}
	defer db.Close()
	journal, err := platform.OpenJournal(db)
	if err != nil {
		return rec, err
	}
	defer journal.Close()
	engine, err := platform.NewEngineOpts(platform.EngineOptions{
		Clock:   vclock.NewVirtual(),
		Journal: journal,
	})
	if err != nil {
		return rec, err
	}
	cp, err := platform.NewCheckpointer(engine, platform.CheckpointOptions{
		EveryEvents:     uint64(interval),
		CompactMinBytes: 32 << 10,
	})
	if err != nil {
		return rec, err
	}
	defer cp.Close()
	node := repl.NewLeaderNode(engine, journal, db)
	defer node.Close()
	srv := platform.NewServer(engine)
	srv.Handle("/api/repl/", node.Handler())
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// History: `history` retired tasks on a redundancy-1 project.
	p, err := engine.EnsureProject(platform.ProjectSpec{Name: "e13", Redundancy: 1})
	if err != nil {
		return rec, err
	}
	events := uint64(1)
	load := func(prefix string, n int) error {
		const batch = 256
		for off := 0; off < n; off += batch {
			end := off + batch
			if end > n {
				end = n
			}
			specs := make([]platform.TaskSpec, end-off)
			for i := range specs {
				specs[i] = platform.TaskSpec{ExternalID: fmt.Sprintf("%s-%d", prefix, off+i)}
			}
			tasks, err := engine.AddTasks(p.ID, specs)
			if err != nil {
				return err
			}
			for i, task := range tasks {
				if _, err := engine.Submit(task.ID, fmt.Sprintf("w-%d", (off+i)%7), "yes"); err != nil {
					return err
				}
			}
			events += uint64(end-off) + 1
		}
		return nil
	}
	if err := load("hist", history); err != nil {
		return rec, err
	}
	if err := waitJournalLen(journal, events); err != nil {
		return rec, err
	}
	// Pin a final cut so catch-up demonstrably rides the snapshot path.
	if err := cp.CheckpointNow(); err != nil {
		return rec, err
	}

	// Catch-up: cold follower against the loaded leader.
	start := time.Now()
	f, err := repl.StartFollower(repl.FollowerOptions{
		LeaderURL: hs.URL,
		Clock:     vclock.NewVirtual(),
		PollWait:  250 * time.Millisecond,
	})
	if err != nil {
		return rec, err
	}
	defer f.Close()
	if err := f.WaitFor(events, 2*time.Minute); err != nil {
		return rec, err
	}
	rec.CatchupSeconds = time.Since(start).Seconds()
	st := f.Engine().ReplStats()
	rec.SnapshotSeq = st.SnapshotSeq
	rec.TailEvents = events - st.SnapshotSeq

	// Steady state: concurrent submit load on the leader while sampling
	// the follower's lag (leader committed length minus applied).
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	var samples, maxLag uint64
	var sumLag float64
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			lag := uint64(0)
			if l, a := journal.Len(), f.AppliedSeq(); l > a {
				lag = l - a
			}
			samples++
			sumLag += float64(lag)
			if lag > maxLag {
				maxLag = lag
			}
		}
	}()
	err = load("steady", steady)
	close(stop)
	sampler.Wait()
	if err != nil {
		return rec, err
	}
	if err := waitJournalLen(journal, events); err != nil {
		return rec, err
	}
	if err := f.WaitFor(events, 2*time.Minute); err != nil {
		return rec, err
	}
	rec.MaxLag = maxLag
	if samples > 0 {
		rec.MeanLag = sumLag / float64(samples)
	}
	rec.Rebootstraps = f.Engine().ReplStats().Rebootstraps
	if l, a := journal.Len(), f.AppliedSeq(); l > a {
		rec.FinalLag = l - a
	}

	// The acceptance bar: leader and follower export equal bytes.
	lstate, err := engine.ExportState(events)
	if err != nil {
		return rec, err
	}
	fstate, err := f.Engine().ExportState(events)
	if err != nil {
		return rec, err
	}
	rec.ByteIdentical = bytes.Equal(lstate, fstate)
	return rec, nil
}

// waitJournalLen waits out the fast-ack window: memory commits can run
// ahead of the committed log, and replication ships only committed
// events.
func waitJournalLen(j *platform.Journal, want uint64) error {
	deadline := time.Now().Add(time.Minute)
	for j.Len() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("exp e13: journal stuck at %d, want %d", j.Len(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
