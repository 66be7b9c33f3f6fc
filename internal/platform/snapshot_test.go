package platform

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// snapEnv is one journaled engine under test, with or without a
// checkpointer attached.
type snapEnv struct {
	dir    string
	db     *storage.DB
	j      *Journal
	e      *Engine
	cp     *Checkpointer
	closed bool
}

func openSnapEnv(t *testing.T, dir string, pol storage.SyncPolicy, breakLock bool, cpOpts *CheckpointOptions) *snapEnv {
	t.Helper()
	db, err := storage.Open(dir, storage.Options{Sync: pol, BreakStaleLock: breakLock})
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(db)
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	e, err := NewEngineOpts(EngineOptions{Clock: vclock.NewVirtual(), Journal: j})
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	env := &snapEnv{dir: dir, db: db, j: j, e: e}
	if cpOpts != nil {
		cp, err := NewCheckpointer(e, *cpOpts)
		if err != nil {
			db.Close()
			t.Fatal(err)
		}
		env.cp = cp
	}
	t.Cleanup(env.close)
	return env
}

func (s *snapEnv) close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.cp != nil {
		s.cp.Close()
	}
	s.j.Close()
	s.db.Close()
}

// driveWorkload runs a deterministic serial workload against an engine:
// two projects (redundancy 2 and 1, mixed strategies), nTasks tasks each,
// a partial answer drain, and a ban. Serial calls + a virtual clock make
// every id and timestamp identical across engines.
func driveWorkload(t *testing.T, e *Engine, nTasks int) {
	t.Helper()
	p1, err := e.EnsureProject(ProjectSpec{Name: "alpha", Redundancy: 2, Strategy: DepthFirst})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.EnsureProject(ProjectSpec{Name: "beta", Redundancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	var specs1, specs2 []TaskSpec
	for i := 0; i < nTasks; i++ {
		specs1 = append(specs1, TaskSpec{
			ExternalID: fmt.Sprintf("a-%d", i),
			Payload:    map[string]string{"url": fmt.Sprintf("img-%d.jpg", i), "z": "q"},
			Priority:   float64(i % 3),
		})
		specs2 = append(specs2, TaskSpec{ExternalID: fmt.Sprintf("b-%d", i)})
	}
	t1, err := e.AddTasks(p1.ID, specs1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.AddTasks(p2.ID, specs2)
	if err != nil {
		t.Fatal(err)
	}
	// Complete 2/3 of alpha's tasks, single-answer the rest; fully drain
	// half of beta. Leaves a mix of retired and live tasks with partial
	// answer sets — the scheduler state a snapshot must reproduce.
	for i, task := range t1 {
		if _, err := e.Submit(task.ID, "w1", "yes"); err != nil {
			t.Fatal(err)
		}
		if i%3 != 0 {
			if _, err := e.Submit(task.ID, "w2", "no"); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, task := range t2 {
		if i%2 == 0 {
			if _, err := e.Submit(task.ID, fmt.Sprintf("w%d", i%5), "v"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.BanWorker(p1.ID, "spammer"); err != nil {
		t.Fatal(err)
	}
}

// encodeEngineState serializes an engine's full materialized state for
// byte-level comparison.
func encodeEngineState(t *testing.T, e *Engine) []byte {
	t.Helper()
	buf, err := e.exportState(0).encode()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestSnapshotTailReplayByteIdentical is the tentpole acceptance test:
// recovery from snapshot + tail must land on state byte-identical to a
// full-history replay, and the journal's on-disk prefix must actually be
// gone.
func TestSnapshotTailReplayByteIdentical(t *testing.T) {
	const everyEvents = 25
	plain := openSnapEnv(t, t.TempDir(), storage.SyncNever, false, nil)
	snap := openSnapEnv(t, t.TempDir(), storage.SyncNever, false, &CheckpointOptions{EveryEvents: everyEvents})

	const nTasks = 30
	driveWorkload(t, plain.e, nTasks)
	driveWorkload(t, snap.e, nTasks)

	// Force the final cut so the test also covers an explicit checkpoint;
	// earlier cuts happened in the background via the EveryEvents policy.
	if err := snap.cp.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	st := snap.cp.Stats()
	if st.Checkpoints == 0 || st.LastSeq == 0 {
		t.Fatalf("no checkpoints cut: %+v", st)
	}
	if st.EventsTruncated == 0 || st.BytesReclaimed <= 0 {
		t.Fatalf("nothing truncated: %+v", st)
	}

	// Add post-snapshot traffic so recovery really has a tail to replay.
	for i := 0; i < 7; i++ {
		for _, env := range []*snapEnv{plain, snap} {
			p, _, err := env.e.FindProject("beta")
			if err != nil {
				t.Fatal(err)
			}
			tasks, err := env.e.AddTasks(p.ID, []TaskSpec{{ExternalID: fmt.Sprintf("tail-%d", i)}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := env.e.Submit(tasks[0].ID, "wt", "tail"); err != nil {
				t.Fatal(err)
			}
		}
	}

	plain.close()
	snap.close()

	// Restart both. The snapshotted one must replay only the tail.
	plain2 := openSnapEnv(t, plain.dir, storage.SyncNever, false, nil)
	snap2 := openSnapEnv(t, snap.dir, storage.SyncNever, false, nil)

	if snap2.j.FirstSeq() == 0 {
		t.Fatal("journal prefix was not truncated")
	}
	if snap2.j.Len() != plain2.j.Len() {
		t.Fatalf("journal lengths diverged: %d vs %d", snap2.j.Len(), plain2.j.Len())
	}
	tail := snap2.j.Len() - snap2.j.FirstSeq()
	if tail >= plain2.j.Len() {
		t.Fatalf("tail (%d events) not bounded below history (%d)", tail, plain2.j.Len())
	}
	// Bounded by the checkpoint cadence, not the history: 2x slack for a
	// cut racing the end of the workload.
	if tail > 2*everyEvents {
		t.Fatalf("restart replays %d events, want <= 2x EveryEvents (%d)", tail, 2*everyEvents)
	}
	// On-disk journal keys: only the tail remains.
	if n, err := snap2.db.Count("j/"); err != nil || uint64(n) != tail {
		t.Fatalf("on-disk journal keys = %d, want tail %d (err %v)", n, tail, err)
	}

	want := encodeEngineState(t, plain2.e)
	got := encodeEngineState(t, snap2.e)
	if !bytes.Equal(want, got) {
		t.Fatalf("snapshot+tail state diverged from full replay:\n full: %s\n snap: %s", want, got)
	}
	// And both match the pre-restart live state.
	if live := encodeEngineState(t, snap.e); !bytes.Equal(live, got) {
		t.Fatalf("recovered state diverged from pre-restart state:\n live: %s\n snap: %s", live, got)
	}

	// Post-recovery behavior: scheduler state (answered sets, retirement)
	// must have survived the snapshot path exactly like a replay.
	p1, _, err := snap2.e.FindProject("alpha")
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := snap2.e.Tasks(p1.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		switch task.State {
		case TaskCompleted:
			if _, err := snap2.e.Submit(task.ID, "w9", "x"); !errors.Is(err, ErrTaskCompleted) {
				t.Fatalf("retired task %d accepted an answer: %v", task.ID, err)
			}
		case TaskOngoing:
			if _, err := snap2.e.Submit(task.ID, "w1", "again"); !errors.Is(err, ErrDuplicateAnswer) {
				t.Fatalf("task %d lost its answered-set: %v", task.ID, err)
			}
		}
	}
	if _, err := snap2.e.RequestTask(p1.ID, "spammer"); !errors.Is(err, ErrWorkerBanned) {
		t.Fatalf("ban lost through snapshot: %v", err)
	}

	// New traffic continues with ids strictly after everything recovered.
	p2, _, err := snap2.e.FindProject("beta")
	if err != nil {
		t.Fatal(err)
	}
	more, err := snap2.e.AddTasks(p2.ID, []TaskSpec{{ExternalID: "post-recovery"}})
	if err != nil {
		t.Fatal(err)
	}
	var maxID int64
	for _, task := range tasks {
		if task.ID > maxID {
			maxID = task.ID
		}
	}
	if more[0].ID <= maxID {
		t.Fatalf("task id regressed after snapshot recovery: %d <= %d", more[0].ID, maxID)
	}
}

// TestCrashDuringSnapshotRecovers is the crash-during-snapshot satellite:
// a kill -9 at either point inside a checkpoint — after the chunk writes
// but before the manifest commit, or after the manifest but before the
// truncation — must recover to state byte-identical to a full replay of
// the same workload.
func TestCrashDuringSnapshotRecovers(t *testing.T) {
	plain := openSnapEnv(t, t.TempDir(), storage.SyncAlways, false, nil)
	snap := openSnapEnv(t, t.TempDir(), storage.SyncAlways, false, &CheckpointOptions{EveryEvents: 20})

	const nTasks = 16
	driveWorkload(t, plain.e, nTasks)
	driveWorkload(t, snap.e, nTasks)
	if err := snap.cp.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	// More traffic lands after the (successful) checkpoint...
	for _, env := range []*snapEnv{plain, snap} {
		p, _, err := env.e.FindProject("beta")
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := env.e.AddTasks(p.ID, []TaskSpec{{ExternalID: "post-cut"}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := env.e.Submit(tasks[0].ID, "wp", "v"); err != nil {
			t.Fatal(err)
		}
	}
	want := encodeEngineState(t, plain.e)

	// ...and then the NEXT checkpoint dies partway. Build both crash
	// images from a byte-copy of the live directory (the store is
	// append-only, so a copy is a valid kill -9 image) and reproduce the
	// exact on-disk state each interruption point leaves.

	// Scenario A: killed after the chunk writes, before the manifest.
	crashA := copyDataDir(t, snap.dir)
	{
		db, err := storage.Open(crashA, storage.Options{Sync: storage.SyncAlways, BreakStaleLock: true})
		if err != nil {
			t.Fatal(err)
		}
		cur, ok, err := storage.ReadSnapshotInfo(db, SnapshotPrefix)
		if err != nil || !ok {
			t.Fatalf("no committed snapshot in image: %v %v", ok, err)
		}
		if _, err := storage.WriteSnapshotChunks(db, SnapshotPrefix, cur.ID+1, []byte("torn checkpoint attempt")); err != nil {
			t.Fatal(err)
		}
		db.Close()
	}

	// Scenario B: killed after the manifest commit, before the journal
	// truncation — the new snapshot is authoritative but the covered
	// prefix is still on disk, so replay must skip it (no double-apply).
	crashB := copyDataDir(t, snap.dir)
	{
		db, err := storage.Open(crashB, storage.Options{Sync: storage.SyncAlways, BreakStaleLock: true})
		if err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(db)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngineOpts(EngineOptions{Clock: vclock.NewVirtual(), Journal: j})
		if err != nil {
			t.Fatal(err)
		}
		cur, _, err := storage.ReadSnapshotInfo(db, SnapshotPrefix)
		if err != nil {
			t.Fatal(err)
		}
		data, err := e.exportState(j.Len()).encode()
		if err != nil {
			t.Fatal(err)
		}
		// Manifest lands; the truncation that should follow never runs.
		if _, err := storage.WriteSnapshot(db, SnapshotPrefix, cur.ID+1, j.Len(), data); err != nil {
			t.Fatal(err)
		}
		j.Close()
		db.Close()
	}

	for name, dir := range map[string]string{"chunks-no-manifest": crashA, "manifest-no-truncate": crashB} {
		rec := openSnapEnv(t, dir, storage.SyncAlways, true, nil)
		got := encodeEngineState(t, rec.e)
		if !bytes.Equal(want, got) {
			t.Errorf("%s: recovered state diverged from full replay:\n want %s\n got  %s", name, want, got)
		}
		rec.close()
	}
}

// TestJournalTruncateBefore covers the journal-level folding primitive:
// truncation persists across reopen, the append position survives, and
// ReplayFrom skips straggler keys below the cut.
func TestJournalTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	db, j := openTestJournal(t, dir, false)
	for i := 0; i < 30; i++ {
		if err := j.Append(Event{Op: OpBan, ProjectID: 1, Worker: fmt.Sprintf("w%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	n, bytes, err := j.TruncateBefore(20)
	if err != nil || n != 20 || bytes <= 0 {
		t.Fatalf("TruncateBefore = %d keys, %d bytes, %v", n, bytes, err)
	}
	if j.FirstSeq() != 20 || j.Len() != 30 {
		t.Fatalf("first/len = %d/%d", j.FirstSeq(), j.Len())
	}
	// Idempotent below the cut.
	if n, _, err := j.TruncateBefore(10); err != nil || n != 0 {
		t.Fatalf("re-truncate below cut: %d, %v", n, err)
	}
	count := 0
	if err := j.ReplayFrom(20, func(Event) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("tail replay saw %d events, want 10", count)
	}
	db.Close()

	db2, j2 := openTestJournal(t, dir, false)
	defer db2.Close()
	if j2.Len() != 30 || j2.FirstSeq() != 20 {
		t.Fatalf("reopen: len/first = %d/%d, want 30/20", j2.Len(), j2.FirstSeq())
	}
	// Appends continue at the original density.
	if err := j2.Append(Event{Op: OpBan, ProjectID: 1, Worker: "tail"}); err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 31 {
		t.Fatalf("append after truncated reopen: len %d", j2.Len())
	}
	if st := j2.Stats(); st.TruncatedThrough != 20 {
		t.Fatalf("stats truncation point: %+v", st)
	}
}

// TestJournalFastAckNonDurable: under a non-durable sync policy, Enqueue
// acks immediately (no committer round trip), events still reach the
// store in order, and a clean close leaves them all replayable.
func TestJournalFastAckNonDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(db)
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	for i := 0; i < n; i++ {
		ticket, err := j.Enqueue(Event{Op: OpBan, ProjectID: 1, Worker: fmt.Sprintf("w%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		// The ack must already be decided — no waiting on the committer.
		select {
		case <-ticket.Done():
		default:
			t.Fatal("non-durable enqueue was not acked immediately")
		}
		if err := ticket.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	db.Close()

	db2, j2 := openTestJournal(t, dir, false)
	defer db2.Close()
	if j2.Len() != n {
		t.Fatalf("recovered %d events, want %d", j2.Len(), n)
	}
	seen := 0
	if err := j2.Replay(func(ev Event) error {
		if ev.Worker != fmt.Sprintf("w%d", seen) {
			return fmt.Errorf("event %d out of order: %q", seen, ev.Worker)
		}
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("replayed %d events, want %d", seen, n)
	}

	// A durable journal still makes callers wait for the flush: the ack
	// channel must not be pre-closed at enqueue time under SyncAlways.
	dirA := t.TempDir()
	dbA, err := storage.Open(dirA, storage.Options{Sync: storage.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer dbA.Close()
	jA, err := OpenJournalOpts(dbA, JournalOptions{FlushInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer jA.Close()
	ticket, err := jA.Enqueue(Event{Op: OpBan, ProjectID: 1, Worker: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ticket.Done():
		t.Fatal("durable enqueue acked before the flush")
	default:
	}
	if err := ticket.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotStatsSurfaced: the checkpointer's counters ride
// PlatformStats (and therefore GET /api/stats).
func TestSnapshotStatsSurfaced(t *testing.T) {
	env := openSnapEnv(t, t.TempDir(), storage.SyncNever, false, &CheckpointOptions{EveryEvents: 1 << 30})
	driveWorkload(t, env.e, 6)
	if err := env.cp.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	st := env.e.PlatformStats()
	if st.Snapshot == nil {
		t.Fatal("snapshot stats missing from PlatformStats")
	}
	if st.Snapshot.Checkpoints != 1 || st.Snapshot.LastSeq == 0 || st.Snapshot.LastBytes == 0 {
		t.Fatalf("snapshot stats: %+v", *st.Snapshot)
	}
	if st.Journal.TruncatedThrough != st.Snapshot.LastSeq {
		t.Fatalf("journal truncation point %d != snapshot seq %d",
			st.Journal.TruncatedThrough, st.Snapshot.LastSeq)
	}
	// A second CheckpointNow with nothing new is a no-op.
	if err := env.cp.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if got := env.cp.Stats().Checkpoints; got != 1 {
		t.Fatalf("empty checkpoint still cut a snapshot: %d", got)
	}
}

// TestCheckpointerKeepsPipelineLive: checkpoint cuts happen while
// concurrent submitters keep pushing traffic through the group-commit
// pipeline — the -race soak target for snapshot/replay interleavings.
func TestCheckpointerKeepsPipelineLive(t *testing.T) {
	env := openSnapEnv(t, t.TempDir(), storage.SyncAlways, false, &CheckpointOptions{EveryEvents: 40})
	p, err := env.e.EnsureProject(ProjectSpec{Name: "live", Redundancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 120
	specs := make([]TaskSpec, tasks)
	for i := range specs {
		specs[i] = TaskSpec{ExternalID: fmt.Sprintf("t%d", i)}
	}
	created, err := env.e.AddTasks(p.ID, specs)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := w; i < tasks; i += 4 {
				if _, err := env.e.Submit(created[i].ID, fmt.Sprintf("w%d", w), "a"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := env.cp.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if st := env.cp.Stats(); st.LastError != "" {
		t.Fatalf("checkpointer failed under load: %s", st.LastError)
	}
	want := encodeEngineState(t, env.e)
	env.close()

	rec := openSnapEnv(t, env.dir, storage.SyncAlways, false, nil)
	if got := encodeEngineState(t, rec.e); !bytes.Equal(want, got) {
		t.Fatalf("state diverged after concurrent checkpointing:\n want %s\n got  %s", want, got)
	}
	if rec.j.FirstSeq() == 0 {
		t.Fatal("no truncation happened under load")
	}
}
