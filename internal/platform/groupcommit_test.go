package platform

import (
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// copyDataDir snapshots a storage directory into a fresh one, skipping the
// LOCK file — exactly the on-disk image a kill -9 would leave behind (the
// store only appends, so a byte-level copy is a valid crash image). Same
// technique as internal/storage's crash tests, applied to the journal.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || e.Name() == "LOCK" {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		out.Close()
	}
	return dst
}

// TestGroupCommitAckSurvivesKill is the durability acceptance test for
// the group-commit pipeline: under SyncAlways, any run whose Submit has
// returned to the client must survive a kill -9 — no clean Close, no
// final Sync, the LOCK file still on disk — and replay must reproduce it
// byte-identically.
func TestGroupCommitAckSurvivesKill(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// The dying process's handles are deliberately never closed (a real
	// kill -9 wouldn't); the copied directory is what recovery sees.
	j, err := OpenJournal(db)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := NewEngineOpts(EngineOptions{Clock: vclock.NewVirtual(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	p, err := e1.EnsureProject(ProjectSpec{Name: "kill", Redundancy: 2})
	if err != nil {
		t.Fatal(err)
	}
	var specs []TaskSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, TaskSpec{ExternalID: fmt.Sprintf("row-%d", i)})
	}
	tasks, err := e1.AddTasks(p.ID, specs)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent submitters, so the acked runs really ride group
	// commits, not per-event flushes.
	const workers = 6
	var wg sync.WaitGroup
	acked := make([][]TaskRun, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range tasks {
				run, err := e1.Submit(tasks[i].ID, fmt.Sprintf("w%d", w), "yes")
				if errors.Is(err, ErrTaskCompleted) || errors.Is(err, ErrDuplicateAnswer) {
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				acked[w] = append(acked[w], run)
			}
		}(w)
	}
	wg.Wait()

	// Kill: snapshot the directory as-is. Every Submit above returned to
	// its caller, so under SyncAlways every one of those runs must be in
	// the image.
	crash := copyDataDir(t, dir)

	db2, err := storage.Open(crash, storage.Options{Sync: storage.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	j2, err := OpenJournal(db2)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	e2, err := NewEngineOpts(EngineOptions{Clock: vclock.NewVirtual(), Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	for w := range acked {
		for _, want := range acked[w] {
			runs, err := e2.Runs(want.TaskID)
			if err != nil {
				t.Fatalf("task %d lost after kill: %v", want.TaskID, err)
			}
			found := false
			for _, got := range runs {
				if got.ID != want.ID {
					continue
				}
				found = true
				if got.WorkerID != want.WorkerID || got.Answer != want.Answer ||
					!got.Assigned.Equal(want.Assigned) || !got.Finished.Equal(want.Finished) {
					t.Fatalf("run %d diverged after recovery:\n acked     %+v\n recovered %+v", want.ID, want, got)
				}
			}
			if !found {
				t.Fatalf("acked run %d (task %d, worker %s) lost by kill -9", want.ID, want.TaskID, want.WorkerID)
			}
		}
	}
	// Replayed task state agrees with what the dying engine had.
	wantTasks, _ := e1.Tasks(p.ID)
	gotTasks, err := e2.Tasks(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantTasks {
		w, g := wantTasks[i], gotTasks[i]
		if g.State != w.State || g.NumAnswers != w.NumAnswers || !g.Completed.Equal(w.Completed) {
			t.Fatalf("task %d diverged after recovery:\n before %+v\n after  %+v", w.ID, w, g)
		}
	}
}

// heldSyncFS is a storage.FileOps whose active-segment fsyncs first call
// the installed hold function, so a test decides what the journal
// committer finds queued by the time a flush completes — on a condition,
// not a timing window. With no hold installed it is the plain filesystem.
type heldSyncFS struct {
	mu   sync.Mutex
	hold func()
}

func (fs *heldSyncFS) setHold(hold func()) {
	fs.mu.Lock()
	fs.hold = hold
	fs.mu.Unlock()
}

func (fs *heldSyncFS) OpenWrite(path string) (storage.SegmentFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return heldSyncFile{File: f, fs: fs}, nil
}

func (fs *heldSyncFS) OpenTrunc(path string) (storage.SegmentFile, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (fs *heldSyncFS) Truncate(path string, size int64) error {
	return os.Truncate(path, size)
}

type heldSyncFile struct {
	*os.File
	fs *heldSyncFS
}

func (f heldSyncFile) Sync() error {
	f.fs.mu.Lock()
	hold := f.fs.hold
	f.fs.mu.Unlock()
	if hold != nil {
		hold()
	}
	return f.File.Sync()
}

// flushingSubmits counts the submissions in the flush group whose fsync
// is being held: staged and not yet acked, but no longer in the journal
// queue. Every stripe lock is held so no Submit can enqueue between the
// two counts.
func flushingSubmits(e *Engine, j *Journal) int {
	for i := range e.stripes {
		e.stripes[i].mu.Lock()
		defer e.stripes[i].mu.Unlock()
	}
	unacked := 0
	for i := range e.stripes {
		for _, sc := range e.stripes[i].submitQ {
			select {
			case <-sc.ticket.Done():
			default:
				unacked++
			}
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return unacked - len(j.queue)
}

// TestGroupCommitContiguousAndAmortized is the -race concurrency test for
// the pipeline: N goroutines submitting through one journal must produce
// contiguous sequence numbers (the journal's density invariant), one
// event per accepted run, and — the whole point — far fewer fsyncs than
// events.
func TestGroupCommitContiguousAndAmortized(t *testing.T) {
	dir := t.TempDir()
	fs := &heldSyncFS{}
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	j, err := OpenJournal(db)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	e, err := NewEngineOpts(EngineOptions{Clock: vclock.NewWall(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.EnsureProject(ProjectSpec{Name: "amortize", Redundancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perW    = 25
	)
	specs := make([]TaskSpec, workers*perW)
	for i := range specs {
		specs[i] = TaskSpec{ExternalID: fmt.Sprintf("t%d", i)}
	}
	tasks, err := e.AddTasks(p.ID, specs)
	if err != nil {
		t.Fatal(err)
	}
	preEvents := j.Len()
	preSyncs := db.Stats().Syncs

	// Hold every fsync of the submit phase until each submitter still
	// running waits on the journal, queued behind the held flush or in
	// it. Groups then form the way they do when an fsync is slow, and
	// not by how the host happens to schedule the goroutines.
	running := workers // guarded by j.mu
	fs.setHold(func() {
		inFlight := flushingSubmits(e, j)
		j.mu.Lock()
		for len(j.queue)+inFlight < running {
			j.cond.Wait() // Enqueue signals; a leaving submitter broadcasts
		}
		j.mu.Unlock()
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				j.mu.Lock()
				running--
				j.cond.Broadcast()
				j.mu.Unlock()
			}()
			for i := w * perW; i < (w+1)*perW; i++ {
				if _, err := e.Submit(tasks[i].ID, fmt.Sprintf("w%d", w), "a"); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	fs.setHold(nil)

	runs := workers * perW
	if got := j.Len() - preEvents; got != uint64(runs) {
		t.Fatalf("journal grew by %d events, want %d", got, runs)
	}
	// Density: keys 0..Len-1 all present, nothing beyond.
	for seq := uint64(0); seq < j.Len(); seq++ {
		ok, err := db.Has(journalKey(seq))
		if err != nil || !ok {
			t.Fatalf("sequence hole at %d (ok=%v err=%v)", seq, ok, err)
		}
	}
	if ok, _ := db.Has(journalKey(j.Len())); ok {
		t.Fatalf("stray event beyond Len at %d", j.Len())
	}
	// Replay sees exactly Len events in order.
	count := 0
	if err := j.Replay(func(Event) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if uint64(count) != j.Len() {
		t.Fatalf("replay saw %d events, journal Len %d", count, j.Len())
	}
	// Group commit actually grouped: under SyncAlways with 8 concurrent
	// submitters queueing behind each held fsync, fsyncs must come in
	// well under one per run — a broken pipeline (one fsync per event)
	// trips this immediately.
	syncs := db.Stats().Syncs - preSyncs
	if syncs*2 > uint64(runs) {
		t.Fatalf("no fsync amortization: %d syncs for %d runs", syncs, runs)
	}
	st := j.Stats()
	if st.Flushes == 0 || st.FlushedEvents < uint64(runs) {
		t.Fatalf("flush counters implausible: %+v", st)
	}
	if st.MaxFlush < 2 {
		t.Fatalf("max flush group %d — no batching at all", st.MaxFlush)
	}
}

// TestJournalAppendBatch covers the batch API: contiguous sequences, one
// wait for the whole group, and a flush count below the event count.
func TestJournalAppendBatch(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	j, err := OpenJournal(db)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var evs []Event
	for i := 0; i < 50; i++ {
		evs = append(evs, Event{Op: OpBan, ProjectID: 1, Worker: fmt.Sprintf("w%d", i)})
	}
	if err := j.AppendBatch(evs); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 50 {
		t.Fatalf("Len = %d, want 50", j.Len())
	}
	st := j.Stats()
	if st.Flushes >= 50 {
		t.Fatalf("AppendBatch did not group: %d flushes for 50 events", st.Flushes)
	}
	if st.MaxFlush < 2 {
		t.Fatalf("max flush %d, want a real group", st.MaxFlush)
	}
	if err := j.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestJournalClosedAppend: appends against a closed journal fail cleanly,
// and Close drains what was already queued.
func TestJournalClosedAppend(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	j, err := OpenJournal(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Event{Op: OpBan, ProjectID: 1, Worker: "w"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Event{Op: OpBan, ProjectID: 1, Worker: "x"}); !errors.Is(err, ErrJournalClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if j.Len() != 1 {
		t.Fatalf("Len after close = %d, want 1", j.Len())
	}
	// Close is idempotent.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSubmitJournaledSemantics runs the full redundancy-N
// concurrency invariants (no over-answering, no duplicates, byte-exact
// recovery) through the journaled stage/flush/finalize path under -race.
func TestConcurrentSubmitJournaledSemantics(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(db)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineOpts(EngineOptions{Clock: vclock.NewWall(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	const (
		tasksN     = 40
		redundancy = 3
		workers    = 8
	)
	p, err := e.EnsureProject(ProjectSpec{Name: "sem", Redundancy: redundancy})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]TaskSpec, tasksN)
	for i := range specs {
		specs[i] = TaskSpec{ExternalID: fmt.Sprintf("t%d", i)}
	}
	if _, err := e.AddTasks(p.ID, specs); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := fmt.Sprintf("w%d", w)
			for {
				task, err := e.RequestTask(p.ID, worker)
				if errors.Is(err, ErrNoTask) {
					return
				}
				if err != nil {
					t.Errorf("request: %v", err)
					return
				}
				if _, err := e.Submit(task.ID, worker, "ans"); err != nil &&
					!errors.Is(err, ErrTaskCompleted) && !errors.Is(err, ErrDuplicateAnswer) {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st, _ := e.Stats(p.ID)
	if st.CompletedTasks != tasksN || st.TaskRuns != tasksN*redundancy {
		t.Fatalf("stats after journaled concurrent drain: %+v", st)
	}
	tasks, _ := e.Tasks(p.ID)
	for _, task := range tasks {
		runs, _ := e.Runs(task.ID)
		if len(runs) != redundancy {
			t.Fatalf("task %d has %d runs", task.ID, len(runs))
		}
		byWorker := map[string]bool{}
		for _, r := range runs {
			if byWorker[r.WorkerID] {
				t.Fatalf("task %d: worker %s answered twice", task.ID, r.WorkerID)
			}
			byWorker[r.WorkerID] = true
		}
	}
	wantTasks, _ := e.Tasks(p.ID)

	// Clean restart replays to identical state.
	j.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := storage.Open(dir, storage.Options{Sync: storage.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	j2, err := OpenJournal(db2)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	e2, err := NewEngineOpts(EngineOptions{Clock: vclock.NewWall(), Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	gotTasks, _ := e2.Tasks(p.ID)
	if len(gotTasks) != len(wantTasks) {
		t.Fatalf("recovered %d tasks, want %d", len(gotTasks), len(wantTasks))
	}
	for i := range wantTasks {
		w, g := wantTasks[i], gotTasks[i]
		if g.State != w.State || g.NumAnswers != w.NumAnswers ||
			!g.Created.Equal(w.Created) || !g.Completed.Equal(w.Completed) {
			t.Fatalf("task %d diverged:\n before %+v\n after  %+v", w.ID, w, g)
		}
	}
}

// TestPlatformStatsEndpoint: GET /api/stats surfaces journal and storage
// counters over HTTP (ROADMAP's queue-introspection follow-on).
func TestPlatformStatsEndpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	j, err := OpenJournal(db)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	e, err := NewEngineOpts(EngineOptions{Clock: vclock.NewVirtual(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	client := NewHTTPClient(srv.URL, srv.Client())

	p, err := client.EnsureProject(ProjectSpec{Name: "stats", Redundancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := client.AddTasks(p.ID, []TaskSpec{{ExternalID: "a"}, {ExternalID: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(tasks[0].ID, "w", "yes"); err != nil {
		t.Fatal(err)
	}

	st, err := client.PlatformStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Projects != 1 || st.Tasks != 2 || st.Runs != 1 {
		t.Fatalf("registry stats: %+v", st)
	}
	if st.Journal == nil || st.Storage == nil {
		t.Fatalf("journal/storage stats missing: %+v", st)
	}
	if st.Journal.Len != 3 { // project + tasks + run
		t.Fatalf("journal len = %d, want 3", st.Journal.Len)
	}
	if st.Journal.Flushes == 0 || st.Journal.FlushedEvents != 3 {
		t.Fatalf("flush counters: %+v", *st.Journal)
	}
	if st.Storage.Syncs == 0 || st.Storage.Applies == 0 {
		t.Fatalf("storage counters: %+v", *st.Storage)
	}

	// An in-memory engine serves registry numbers with no journal block.
	mem := NewEngine(vclock.NewVirtual())
	srv2 := httptest.NewServer(NewServer(mem))
	defer srv2.Close()
	st2, err := NewHTTPClient(srv2.URL, srv2.Client()).PlatformStats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Journal != nil || st2.Storage != nil {
		t.Fatalf("in-memory engine reported journal stats: %+v", st2)
	}
}
