package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/storage"
)

// This file is the platform's snapshot-checkpoint subsystem. The journal
// alone makes the engine recoverable, but recovery cost and disk
// footprint grow with the full event history — O(everything that ever
// happened), which is fatal for a long-running platform. A checkpoint
// folds the journal's replayed prefix into a materialized-state snapshot
// record in the store, after which the covered events are truncated and
// recovery becomes load-snapshot + replay-tail: O(live state + tail).
//
// The cut is consistent by construction. A Checkpointer taps the
// journal's committer (Journal.AddTap) and applies every committed
// event, in sequence order, to its own materializer — a shadow of the
// replay path that never touches the engine's locks. When the policy
// triggers, the materializer's state at sequence S is by definition what
// replaying events [0, S) produces, so serializing it and truncating the
// journal below S preserves replay equivalence exactly (and a test holds
// it to byte-identical). The engine's own registries are never stalled:
// the committer hands events to the checkpointer through an O(1) staged
// queue — the same stage/flush discipline the group-commit pipeline
// uses — and the encode, chunk writes, truncation and compaction all run
// on the checkpointer's goroutine.
//
// Crash safety leans on the storage snapshot record's commit protocol
// (see internal/storage/snapshot.go): a kill -9 before the manifest
// commit leaves the previous snapshot authoritative and the journal
// untruncated; a kill after it leaves at worst straggler journal keys
// below the cut, which ReplayFrom skips. Either way recovery lands on
// the same state as an untruncated full replay.

// SnapshotPrefix is the key space the platform's snapshot records own in
// the journal's store (the journal owns "j/" and "jm/").
const SnapshotPrefix = "s/"

// snapshotStateVersion versions the encoded engine-state payload, inside
// the storage manifest's own format version.
const snapshotStateVersion = 1

// banRecord is one (project, worker) ban entry in a snapshot.
type banRecord struct {
	ProjectID int64  `json:"project_id"`
	Worker    string `json:"worker"`
}

// snapshotState is the engine's materialized state as of journal sequence
// Seq: everything replaying events [0, Seq) would build. Slices are
// sorted by id (and bans by project then worker), so encoding is
// deterministic — equal states encode to equal bytes.
type snapshotState struct {
	Version       int         `json:"version"`
	Seq           uint64      `json:"seq"`
	NextProjectID int64       `json:"next_project_id"`
	NextTaskID    int64       `json:"next_task_id"`
	NextRunID     int64       `json:"next_run_id"`
	Projects      []Project   `json:"projects"`
	Tasks         []Task      `json:"tasks"`
	Runs          []TaskRun   `json:"runs"`
	Bans          []banRecord `json:"bans"`
}

// encode serializes the state deterministically.
func (st *snapshotState) encode() ([]byte, error) {
	return json.Marshal(st)
}

// decodeSnapshotState parses an encoded state and checks its version.
func decodeSnapshotState(data []byte) (*snapshotState, error) {
	st := &snapshotState{}
	if err := json.Unmarshal(data, st); err != nil {
		return nil, fmt.Errorf("platform: snapshot decode: %w", err)
	}
	if st.Version != snapshotStateVersion {
		return nil, fmt.Errorf("platform: snapshot state version %d (want %d)", st.Version, snapshotStateVersion)
	}
	return st, nil
}

// loadSnapshotState reads the latest committed snapshot from the
// journal's store. ok is false when no snapshot has ever been cut. An
// unreadable snapshot is an error, never a silent miss: the journal's
// covered prefix is gone, so a full replay cannot substitute.
func loadSnapshotState(db *storage.DB) (*snapshotState, bool, error) {
	info, data, ok, err := storage.ReadSnapshot(db, SnapshotPrefix)
	if err != nil || !ok {
		return nil, false, err
	}
	st, err := decodeSnapshotState(data)
	if err != nil {
		return nil, false, err
	}
	if st.Seq != info.Seq {
		return nil, false, fmt.Errorf("platform: snapshot cut point mismatch: state %d, manifest %d", st.Seq, info.Seq)
	}
	return st, true, nil
}

// materializer builds snapshotState incrementally from journal events.
// It mirrors Engine.apply's record-keeping without the scheduler: a
// journaled run is by construction an accepted one, so a task retires
// exactly when its answer count reaches its redundancy — the same verdict
// sched.Complete returns during replay.
type materializer struct {
	projects map[int64]*Project
	tasks    map[int64]*Task
	taskIDs  []int64 // creation (= id) order
	runs     []TaskRun
	bans     map[int64]map[string]bool

	maxProject, maxTask, maxRun int64
}

func newMaterializer() *materializer {
	return &materializer{
		projects: make(map[int64]*Project),
		tasks:    make(map[int64]*Task),
		bans:     make(map[int64]map[string]bool),
	}
}

// materializerFromState seeds a materializer with an already-built state
// (the latest snapshot's, at checkpointer attach; an engine export in
// tests). Records are deep-copied — the source keeps mutating its own.
func materializerFromState(st *snapshotState) *materializer {
	m := newMaterializer()
	for i := range st.Projects {
		p := st.Projects[i]
		m.projects[p.ID] = &p
		if p.ID > m.maxProject {
			m.maxProject = p.ID
		}
	}
	for i := range st.Tasks {
		t := st.Tasks[i]
		t.Payload = copyPayload(t.Payload)
		m.tasks[t.ID] = &t
		m.taskIDs = append(m.taskIDs, t.ID)
		if t.ID > m.maxTask {
			m.maxTask = t.ID
		}
	}
	m.runs = append(m.runs, st.Runs...)
	for _, r := range st.Runs {
		if r.ID > m.maxRun {
			m.maxRun = r.ID
		}
	}
	for _, b := range st.Bans {
		if m.bans[b.ProjectID] == nil {
			m.bans[b.ProjectID] = make(map[string]bool)
		}
		m.bans[b.ProjectID][b.Worker] = true
	}
	m.maxProject = max(m.maxProject, st.NextProjectID)
	m.maxTask = max(m.maxTask, st.NextTaskID)
	m.maxRun = max(m.maxRun, st.NextRunID)
	return m
}

// apply folds one committed journal event into the materialized state.
func (m *materializer) apply(ev Event) error {
	switch ev.Op {
	case OpProject:
		if ev.Project == nil {
			return errors.New("platform: materialize: project event without project")
		}
		p := *ev.Project
		m.projects[p.ID] = &p
		if p.ID > m.maxProject {
			m.maxProject = p.ID
		}
	case OpTasks:
		for i := range ev.Tasks {
			t := ev.Tasks[i]
			t.Payload = copyPayload(t.Payload)
			if _, ok := m.projects[t.ProjectID]; !ok {
				return fmt.Errorf("platform: materialize: task %d references unknown project %d", t.ID, t.ProjectID)
			}
			m.tasks[t.ID] = &t
			m.taskIDs = append(m.taskIDs, t.ID)
			if t.ID > m.maxTask {
				m.maxTask = t.ID
			}
		}
	case OpRun:
		if ev.Run == nil {
			return errors.New("platform: materialize: run event without run")
		}
		run := *ev.Run
		t, ok := m.tasks[run.TaskID]
		if !ok {
			return fmt.Errorf("platform: materialize: run %d references unknown task %d", run.ID, run.TaskID)
		}
		m.runs = append(m.runs, run)
		if run.ID > m.maxRun {
			m.maxRun = run.ID
		}
		t.NumAnswers++
		if t.NumAnswers >= t.Redundancy {
			t.State = TaskCompleted
			t.Completed = run.Finished
		}
	case OpBan:
		if m.bans[ev.ProjectID] == nil {
			m.bans[ev.ProjectID] = make(map[string]bool)
		}
		m.bans[ev.ProjectID][ev.Worker] = true
	default:
		return fmt.Errorf("platform: materialize: unknown journal op %q", ev.Op)
	}
	return nil
}

// state assembles the deterministic snapshot of everything applied so
// far, cut at journal sequence seq.
func (m *materializer) state(seq uint64) *snapshotState {
	st := &snapshotState{
		Version:       snapshotStateVersion,
		Seq:           seq,
		NextProjectID: m.maxProject,
		NextTaskID:    m.maxTask,
		NextRunID:     m.maxRun,
	}
	for _, p := range m.projects {
		st.Projects = append(st.Projects, *p)
	}
	sort.Slice(st.Projects, func(i, j int) bool { return st.Projects[i].ID < st.Projects[j].ID })
	for _, id := range m.taskIDs {
		st.Tasks = append(st.Tasks, *m.tasks[id])
	}
	st.Runs = append(st.Runs, m.runs...)
	sort.Slice(st.Runs, func(i, j int) bool { return st.Runs[i].ID < st.Runs[j].ID })
	for pid, workers := range m.bans {
		for w := range workers {
			st.Bans = append(st.Bans, banRecord{ProjectID: pid, Worker: w})
		}
	}
	sort.Slice(st.Bans, func(i, j int) bool {
		a, b := st.Bans[i], st.Bans[j]
		if a.ProjectID != b.ProjectID {
			return a.ProjectID < b.ProjectID
		}
		return a.Worker < b.Worker
	})
	return st
}

// exportMaterializer deep-copies the engine's materialized state into a
// fresh materializer. The caller must know the engine is consistent with
// whatever journal sequence it associates with the export (true at
// startup, between recovery and serving traffic; the live checkpointer
// seeds from disk instead, precisely to avoid that requirement).
func (e *Engine) exportMaterializer() *materializer {
	// Exclusive, not shared: task fields and stripe state mutate under
	// stripe locks with e.mu held shared, so only an exclusive hold makes
	// the whole-registry copy one consistent cut.
	e.mu.Lock()
	defer e.mu.Unlock()
	m := newMaterializer()
	for id, p := range e.projects {
		pc := *p
		m.projects[id] = &pc
	}
	for _, tids := range e.projectTasks {
		m.taskIDs = append(m.taskIDs, tids...)
	}
	sort.Slice(m.taskIDs, func(i, j int) bool { return m.taskIDs[i] < m.taskIDs[j] })
	for _, id := range m.taskIDs {
		tc := *e.tasks[id]
		tc.Payload = copyPayload(tc.Payload)
		m.tasks[id] = &tc
	}
	for i := range e.stripes {
		for _, runs := range e.stripes[i].runs {
			for _, r := range runs {
				m.runs = append(m.runs, *r)
			}
		}
	}
	for pid, workers := range e.banned {
		for w := range workers {
			if m.bans[pid] == nil {
				m.bans[pid] = make(map[string]bool)
			}
			m.bans[pid][w] = true
		}
	}
	m.maxProject = e.nextProjectID
	m.maxTask = e.nextTaskID
	m.maxRun = e.nextRunID.Load()
	return m
}

// exportState captures the engine's materialized state as of journal
// sequence seq (same assembly and ordering as a checkpointer cut — the
// byte-identical tests compare the two directly).
func (e *Engine) exportState(seq uint64) *snapshotState {
	return e.exportMaterializer().state(seq)
}

// ExportState serializes the engine's materialized state as a snapshot
// record cut at journal sequence seq — the same deterministic encoding a
// checkpointer cut produces, so two engines that applied the same event
// prefix export equal bytes. The replication subsystem uses it for the
// leader-vs-follower byte-identical proof and for promotion (a promoted
// follower seeds its own store with this record). The caller asserts seq:
// the engine must actually reflect events [0, seq), which holds for a
// leader quiesced at journal length seq and for a follower whose applied
// position is seq.
func (e *Engine) ExportState(seq uint64) ([]byte, error) {
	return e.exportState(seq).encode()
}

// RestoreState loads an encoded snapshot record into a fresh engine — the
// follower's bootstrap path, identical to what NewEngineOpts does with a
// local snapshot — and returns the cut sequence the stream must resume
// from.
func (e *Engine) RestoreState(data []byte) (uint64, error) {
	st, err := decodeSnapshotState(data)
	if err != nil {
		return 0, err
	}
	e.mu.RLock()
	fresh := len(e.projects) == 0 && len(e.tasks) == 0
	e.mu.RUnlock()
	if !fresh {
		return 0, fmt.Errorf("platform: restore state: engine is not empty")
	}
	if err := e.restoreSnapshot(st); err != nil {
		return 0, err
	}
	return st.Seq, nil
}

// ResetReplicaState discards a read replica's entire state and loads the
// given snapshot record in its place — the follower's re-bootstrap
// ("install snapshot") path, taken when the leader has truncated journal
// events the replica still needed: the gap lives on only inside the
// leader's newer snapshot, so the replica starts over from that snapshot
// instead of dying. The swap happens under one registry hold — readers
// see the old state, then the new, never an empty in-between. Returns
// the new snapshot's cut sequence, which the stream resumes from.
func (e *Engine) ResetReplicaState(data []byte) (uint64, error) {
	st, err := decodeSnapshotState(data)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.readOnly || e.journal != nil {
		return 0, fmt.Errorf("platform: reset state: engine is not a replica")
	}
	e.sched = sched.New(e.clock, e.schedOpts)
	e.nextProjectID, e.nextTaskID = 0, 0
	e.nextRunID.Store(0)
	e.projects = make(map[int64]*Project)
	e.projectsByName = make(map[string]int64)
	e.projectTasks = make(map[int64][]int64)
	e.externalIDs = make(map[int64]map[string]int64)
	e.tasks = make(map[int64]*Task)
	e.banned = make(map[int64]map[string]bool)
	for i := range e.stripes {
		s := &e.stripes[i]
		s.runs = make(map[int64][]*TaskRun)
		s.flights = make(map[int64]*taskFlight)
		s.submitQ = nil
	}
	e.replayHorizon = time.Time{}
	if err := e.restoreSnapshotLocked(st); err != nil {
		return 0, err
	}
	return st.Seq, nil
}

// restoreSnapshot loads a snapshot's state into a fresh engine, exactly
// as replaying the covered events would have: registries take the records
// verbatim, and the scheduler is rebuilt by re-admitting each live task
// and replaying its accepted runs (retired tasks cost the scheduler
// nothing, so only ongoing tasks are touched). Called from NewEngineOpts
// before the journal tail replays.
func (e *Engine) restoreSnapshot(st *snapshotState) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.restoreSnapshotLocked(st)
}

// restoreSnapshotLocked is restoreSnapshot with e.mu already held (the
// replica reset path swaps state out and in under one hold, so readers
// never observe the empty intermediate).
func (e *Engine) restoreSnapshotLocked(st *snapshotState) error {
	for i := range st.Projects {
		p := st.Projects[i]
		e.observeReplayTime(p.Created)
		e.insertProject(&p)
	}
	for i := range st.Tasks {
		t := st.Tasks[i]
		t.Payload = copyPayload(t.Payload)
		e.observeReplayTime(t.Created)
		if err := e.insertTask(&t); err != nil {
			return err
		}
	}
	for i := range st.Runs {
		run := st.Runs[i]
		t, ok := e.tasks[run.TaskID]
		if !ok {
			return fmt.Errorf("platform: snapshot run %d references unknown task %d", run.ID, run.TaskID)
		}
		e.observeReplayTime(run.Finished)
		sp := e.stripe(run.TaskID)
		sp.runs[run.TaskID] = append(sp.runs[run.TaskID], &run)
		if t.State == TaskOngoing {
			if _, err := e.sched.Complete(t.ProjectID, run.TaskID, run.WorkerID,
				func() time.Time { return run.Finished }); err != nil {
				return fmt.Errorf("platform: snapshot restore run %d: %w", run.ID, err)
			}
		}
	}
	for _, b := range st.Bans {
		e.applyBan(b.ProjectID, b.Worker)
	}
	e.nextProjectID = max(e.nextProjectID, st.NextProjectID)
	e.nextTaskID = max(e.nextTaskID, st.NextTaskID)
	e.nextRunID.Store(max(e.nextRunID.Load(), st.NextRunID))
	return nil
}

// CheckpointOptions tune the background checkpointer. The zero value
// never cuts on its own (CheckpointNow still works).
type CheckpointOptions struct {
	// EveryEvents cuts a snapshot after this many journal events since
	// the last one. 0 disables the event trigger.
	EveryEvents uint64
	// EveryBytes cuts after this many bytes of encoded journal growth
	// since the last snapshot. 0 disables the byte trigger.
	EveryBytes int64
	// CompactMinBytes is CompactIfNeeded's size floor. 0 defaults to 1 MiB.
	CompactMinBytes int64
}

// compactDeadFraction is the dead-byte share at which the checkpointer
// compacts the store after each truncation (storage.CompactIfNeeded),
// reclaiming the dead journal prefix on disk.
const compactDeadFraction = 0.5

func (o CheckpointOptions) withDefaults() CheckpointOptions {
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = 1 << 20
	}
	return o
}

// SnapshotStats is the checkpointer's point-in-time summary, surfaced by
// GET /api/stats.
type SnapshotStats struct {
	// Checkpoints counts snapshots cut since this process started.
	Checkpoints uint64 `json:"checkpoints"`
	// LastSeq is the latest snapshot's cut point: recovery replays only
	// events at or above it.
	LastSeq uint64 `json:"last_seq"`
	// LastBytes is the latest snapshot's encoded size.
	LastBytes int64 `json:"last_bytes"`
	// LastNanos is how long the latest checkpoint took end to end.
	LastNanos uint64 `json:"last_nanos"`
	// EventsTruncated counts journal events folded into snapshots.
	EventsTruncated uint64 `json:"events_truncated"`
	// BytesReclaimed counts journal bytes those events occupied — the
	// log footprint the snapshots bought back.
	BytesReclaimed int64 `json:"bytes_reclaimed"`
	// Compactions counts storage compactions the checkpointer triggered.
	Compactions uint64 `json:"compactions"`
	// PendingEvents is how many committed events the next snapshot will
	// newly cover.
	PendingEvents uint64 `json:"pending_events"`
	// LastError reports the most recent checkpointing failure. A failure
	// to produce a snapshot fail-stops the subsystem (the journal keeps
	// running; snapshots stop, so recovery cost grows again); a failure
	// in post-commit maintenance (truncate/prune/compact) is transient
	// and retried by the next cut.
	LastError string `json:"last_error,omitempty"`
}

// obsEvent is one committed journal event staged for the checkpointer.
type obsEvent struct {
	seq  uint64
	ev   Event
	size int
}

// ErrCheckpointerClosed is returned by CheckpointNow after Close.
var ErrCheckpointerClosed = errors.New("platform: checkpointer is closed")

// Checkpointer is the background snapshot cutter. Create one with
// NewCheckpointer after the engine has recovered and before it serves
// traffic; Close it on shutdown (order does not matter relative to
// Journal.Close — a closed journal simply stops feeding it).
type Checkpointer struct {
	j     *Journal
	db    *storage.DB
	opts  CheckpointOptions
	untap func() // detaches the committed-event tap

	pmu     sync.Mutex
	pending []obsEvent
	notify  chan struct{}
	reqs    chan chan error
	stop    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup

	// Owned by the run goroutine.
	mat         *materializer
	seq         uint64 // next sequence the materializer expects
	lastCutSeq  uint64
	sinceEvents uint64
	sinceBytes  int64
	snapID      uint64
	failed      error

	smu   sync.Mutex
	stats SnapshotStats

	// mCut distributes checkpoint wall time (nil when the journal carries
	// no metrics registry).
	mCut *obs.Histogram
}

// NewCheckpointer attaches a snapshot checkpointer to a journaled engine.
// Seeding replays the latest snapshot + journal tail from the store (the
// same bounded recovery path the engine uses), so attaching is safe even
// with traffic already flowing. At startup this repeats work NewEngineOpts
// just did, deliberately: both passes are bounded by the checkpoint
// interval (that is the subsystem's invariant), the repeat needs no
// engine-quiescence precondition, and it re-validates the snapshot
// record end to end before the checkpointer builds on it.
func NewCheckpointer(e *Engine, opts CheckpointOptions) (*Checkpointer, error) {
	j := e.journal
	if j == nil {
		return nil, errors.New("platform: checkpointer requires a journaled engine")
	}
	c := &Checkpointer{
		j:      j,
		db:     j.db,
		opts:   opts.withDefaults(),
		notify: make(chan struct{}, 1),
		reqs:   make(chan chan error),
		stop:   make(chan struct{}),
	}
	if info, ok, err := storage.ReadSnapshotInfo(j.db, SnapshotPrefix); err != nil {
		return nil, err
	} else if ok {
		c.snapID = info.ID
		c.lastCutSeq = info.Seq
		c.smu.Lock()
		c.stats.LastSeq = info.Seq
		c.stats.LastBytes = info.Bytes
		c.smu.Unlock()
	}
	// Seed the materializer from disk — the same snapshot + tail-replay
	// recovery the engine itself performs — with the tap registered
	// before the journal tail scan. This is correct under any
	// interleaving with live traffic: the scan holds the store's read
	// lock, so an event flushed after the scan closes is not in the scan
	// but is buffered with its sequence number (events flushed before
	// the scan appear in both, and drain's o.seq < c.seq guard drops the
	// buffered duplicate). The materializer therefore equals replay of
	// [0, c.seq) exactly, without requiring the engine to be quiescent.
	c.mat = newMaterializer()
	if st, ok, err := loadSnapshotState(j.db); err != nil {
		return nil, err
	} else if ok {
		c.mat = materializerFromState(st)
		c.seq = st.Seq
	}
	c.untap = j.AddTap(c.observe)
	if err := j.replayFrom(c.seq, true, func(_ uint64, ev Event, size int) error {
		if err := c.mat.apply(ev); err != nil {
			return err
		}
		c.seq++
		// The recovered tail is uncovered backlog: it counts toward both
		// policy triggers, or a frequently-restarted server would never
		// reach its threshold and the journal would grow unchecked.
		c.sinceEvents++
		c.sinceBytes += int64(size)
		return nil
	}); err != nil {
		// Detach before bailing: a registered tap with no drain
		// goroutine would buffer every future commit unboundedly.
		c.untap()
		return nil, fmt.Errorf("platform: checkpointer seed: %w", err)
	}
	c.smu.Lock()
	c.stats.PendingEvents = c.sinceEvents
	c.smu.Unlock()
	// The checkpointer inherits the journal's registry: it is the same
	// subsystem's background half.
	if reg := j.opts.Metrics; reg != nil {
		c.mCut = reg.Histogram("reprowd_snapshot_cut_seconds",
			"Wall time of one checkpoint (encode + write + truncate/prune/compact).", nil)
		reg.CounterFunc("reprowd_snapshot_checkpoints_total",
			"Snapshots cut since process start.", func() uint64 { return c.Stats().Checkpoints })
		reg.CounterFunc("reprowd_snapshot_truncated_events_total",
			"Journal events folded into snapshots.", func() uint64 { return c.Stats().EventsTruncated })
		reg.GaugeFunc("reprowd_snapshot_pending_events",
			"Committed events the next snapshot will newly cover.", func() float64 { return float64(c.Stats().PendingEvents) })
		reg.GaugeFunc("reprowd_snapshot_last_seq",
			"Cut point of the latest snapshot.", func() float64 { return float64(c.Stats().LastSeq) })
	}
	e.attachCheckpointer(c)
	c.wg.Add(1)
	go c.run()
	// Kick one policy check immediately so a large backlog checkpoints
	// without waiting for fresh traffic.
	select {
	case c.notify <- struct{}{}:
	default:
	}
	return c, nil
}

// observe is the journal committer's tap: stage the event and poke the
// checkpoint goroutine. O(1), no disk, no engine locks — the commit
// pipeline never waits on checkpointing.
func (c *Checkpointer) observe(seq uint64, ev Event, size int) {
	c.pmu.Lock()
	c.pending = append(c.pending, obsEvent{seq: seq, ev: ev, size: size})
	c.pmu.Unlock()
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// run drains staged events into the materializer and cuts snapshots when
// the policy triggers.
func (c *Checkpointer) run() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case done := <-c.reqs:
			c.drain()
			done <- c.cut()
		case <-c.notify:
			c.drain()
			if c.failed == nil && c.policyMet() {
				c.cut()
			}
		}
	}
}

// drain applies every staged event, verifying the sequence is gapless.
// A gap means the observer was attached late or events were lost — the
// materializer can no longer prove it equals the replay of [0, seq), so
// checkpointing fail-stops rather than cut a wrong snapshot.
func (c *Checkpointer) drain() {
	c.pmu.Lock()
	batch := c.pending
	c.pending = nil
	c.pmu.Unlock()
	if c.failed != nil {
		return
	}
	for _, o := range batch {
		if o.seq < c.seq {
			continue // covered by the seeding export
		}
		if o.seq != c.seq {
			c.fail(fmt.Errorf("platform: checkpointer: sequence gap: got %d, want %d", o.seq, c.seq))
			return
		}
		if err := c.mat.apply(o.ev); err != nil {
			c.fail(err)
			return
		}
		c.seq++
		c.sinceEvents++
		c.sinceBytes += int64(o.size)
	}
	c.smu.Lock()
	c.stats.PendingEvents = c.sinceEvents
	c.smu.Unlock()
}

func (c *Checkpointer) policyMet() bool {
	return (c.opts.EveryEvents > 0 && c.sinceEvents >= c.opts.EveryEvents) ||
		(c.opts.EveryBytes > 0 && c.sinceBytes >= c.opts.EveryBytes)
}

// fail records a checkpointing error and stops future cuts.
func (c *Checkpointer) fail(err error) error {
	c.failed = err
	c.smu.Lock()
	c.stats.LastError = err.Error()
	c.smu.Unlock()
	return err
}

// cut serializes the materializer at its current sequence, commits the
// snapshot record, truncates the covered journal prefix, prunes stale
// snapshot chunks and (optionally) compacts the store. Runs entirely on
// the checkpoint goroutine.
//
// Only a failure to produce the snapshot itself (encode, record write)
// fail-stops checkpointing. Once the manifest is durable the checkpoint
// has happened — the follow-up maintenance (truncate, prune, compact) is
// retried implicitly by the next cut, whose TruncateBefore sweeps from
// sequence zero and whose prune drops everything but the newest id, so a
// transient error there is reported but never wedges the subsystem.
func (c *Checkpointer) cut() error {
	if c.failed != nil {
		return c.failed
	}
	if c.seq == c.lastCutSeq {
		return nil // nothing new since the last snapshot
	}
	start := obs.Now()
	data, err := c.mat.state(c.seq).encode()
	if err != nil {
		return c.fail(fmt.Errorf("platform: snapshot encode: %w", err))
	}
	id := c.snapID + 1
	if _, err := storage.WriteSnapshot(c.db, SnapshotPrefix, id, c.seq, data); err != nil {
		return c.fail(err)
	}
	// The snapshot is durably committed: advance the cut bookkeeping
	// before any maintenance can fail.
	c.snapID = id
	c.lastCutSeq = c.seq
	c.sinceEvents, c.sinceBytes = 0, 0
	c.smu.Lock()
	c.stats.Checkpoints++
	c.stats.LastSeq = c.seq
	c.stats.LastBytes = int64(len(data))
	c.stats.PendingEvents = 0
	c.smu.Unlock()

	// Maintenance: fold the covered prefix and reclaim disk.
	var maintErr error
	events, bytes, err := c.j.TruncateBefore(c.seq)
	if err != nil {
		maintErr = err
	}
	if _, err := storage.PruneSnapshots(c.db, SnapshotPrefix, id); err != nil && maintErr == nil {
		maintErr = err
	}
	compacted := false
	if maintErr == nil {
		compacted, err = c.db.CompactIfNeeded(compactDeadFraction, c.opts.CompactMinBytes)
		if err != nil {
			maintErr = err
		}
	}
	c.mCut.Observe(obs.Since(start).Seconds())
	c.smu.Lock()
	c.stats.LastNanos = uint64(obs.Since(start))
	c.stats.EventsTruncated += uint64(events)
	c.stats.BytesReclaimed += bytes
	if compacted {
		c.stats.Compactions++
	}
	if maintErr != nil {
		c.stats.LastError = maintErr.Error()
	} else {
		// A fully clean cut clears any stale transient-maintenance error,
		// so /api/stats reflects current health, not history.
		c.stats.LastError = ""
	}
	c.smu.Unlock()
	// The checkpoint itself committed: don't report failure to
	// CheckpointNow callers over maintenance the next cut retries
	// (it stays visible in Stats().LastError until a clean cut).
	return nil
}

// CheckpointNow cuts a snapshot synchronously, covering everything
// committed to the journal at the time of the call (a flush barrier
// waits out the committer's queue first — fast-acked appends may still
// be in flight). A no-op returning nil when nothing new has committed
// since the last cut.
func (c *Checkpointer) CheckpointNow() error {
	// Ignore the barrier's own error: a poisoned or closed journal just
	// means the cut covers whatever did commit.
	c.j.barrier().Wait()
	done := make(chan error, 1)
	select {
	case c.reqs <- done:
	case <-c.stop:
		return ErrCheckpointerClosed
	}
	select {
	case err := <-done:
		return err
	case <-c.stop:
		return ErrCheckpointerClosed
	}
}

// Stats returns the checkpointer's counters.
func (c *Checkpointer) Stats() SnapshotStats {
	c.smu.Lock()
	defer c.smu.Unlock()
	return c.stats
}

// Close detaches the journal tap and stops the checkpoint
// goroutine. Events staged but not yet cut simply remain in the journal
// tail for the next recovery. Idempotent.
func (c *Checkpointer) Close() error {
	c.once.Do(func() {
		// Detach first: with the drain goroutine gone, a still-attached
		// observer would grow c.pending for as long as the journal keeps
		// committing.
		c.untap()
		close(c.stop)
		c.wg.Wait()
	})
	return nil
}
