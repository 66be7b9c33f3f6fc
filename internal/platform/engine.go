package platform

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Engine is the in-memory platform implementation. It is safe for
// concurrent use and implements Client directly (the in-process binding).
//
// Task assignment is owned by the internal/sched subsystem: each project
// has a heap-indexed queue there, striped across shard locks, so
// RequestTask is O(log n) in the open task set and requests against
// different projects never contend on one mutex. The engine itself keeps
// the record of truth: registry *structure* (the project/task maps, name
// and external-id indexes) lives under a registry RWMutex that the
// request path takes shared, while the task-scoped hot state — runs,
// in-flight submissions, and the mutable Task fields — is striped across
// per-task locks the same way (see Engine.stripes), so the submit path
// never takes the registry lock exclusively.
//
// With a Journal attached (see EngineOptions), every state mutation is
// appended to a write-ahead log on internal/storage before the call
// returns, and NewEngineOpts replays the log on startup, so a restarted
// server resumes with the task/run state it had when it died — the
// paper's crash-and-rerun guarantee extended to the platform side.
//
// Journaled mutations run in three phases so that no lock is held across
// a disk flush (the journal group-commits, so N concurrent writers share
// one fsync):
//
//  1. stage, under the mutation's locks (e.mu exclusive for project and
//     task creation; e.mu shared + the task's stripe lock for Submit):
//     validate, reserve ids and timestamps, record the in-flight intent
//     (flights/stage maps) so concurrent stagers see it, and enqueue the
//     journal event — fixing the journal order to the stage order, which
//     is what replay will see.
//  2. flush, with every lock released: wait for the durability ack.
//  3. finalize, relocking: commit memory and scheduler state with the
//     values computed at stage time. Using staged values (not whatever
//     the scheduler would say at finalize time) keeps memory
//     byte-identical with replay even when groups finalize out of order.
//
// Journal-before-commit still holds: nothing is visible to readers until
// the event is durable, and a failed flush commits nothing (the journal
// poisons itself, so no later event can land after a gap).
type Engine struct {
	mu        sync.RWMutex
	clock     vclock.Clock
	sched     *sched.Scheduler
	schedOpts sched.Options // kept to rebuild the scheduler on replica reset

	// journal is assigned only after replay completes, so apply() during
	// recovery never re-appends.
	journal *Journal

	// snap is the attached snapshot checkpointer, if any (stats only —
	// the checkpointer feeds off the journal, not the engine).
	snap *Checkpointer

	// readOnly marks a replica engine: every externally mutating call
	// (EnsureProject, AddTasks, RequestTask, Submit, BanWorker) returns
	// ErrReadOnly, and state changes arrive only through ApplyReplicated —
	// the leader's journal stream applied via the replay path. leaderURL,
	// when known, lets the HTTP layer redirect rejected writes.
	readOnly  bool
	leaderURL string

	// replStats, when set, reports the replication subsystem's view
	// (role, applied/leader sequence, lag) for /api/stats and healthz.
	replStats func() ReplStats

	// epochGuard, when set, is the replication node's fencing check: the
	// HTTP layer passes every write's stamped EpochToken through it before
	// touching the engine (ErrStaleEpoch / ErrFenced reject the write).
	// Nil (standalone, no replication node) accepts everything.
	epochGuard func(EpochToken) error

	// ownsID, when set, restricts id allocation to values the predicate
	// accepts (see EngineOptions.OwnsID). Immutable after construction,
	// so reads need no lock beyond the allocation sites' e.mu.
	ownsID func(id int64) bool

	nextProjectID int64
	nextTaskID    int64

	// nextRunID is the run id high-water mark, allocated by CAS so the
	// submit hot path reserves ids without the exclusive registry lock.
	nextRunID atomic.Int64

	projects       map[int64]*Project
	projectsByName map[string]int64
	projectTasks   map[int64][]int64          // project id → task ids, creation order
	externalIDs    map[int64]map[string]int64 // project id → external id → task id

	tasks  map[int64]*Task
	banned map[int64]map[string]bool // project id → banned workers

	// stripes shard the task-scoped hot state (runs, in-flight
	// submissions, per-stripe finalize queues) the way internal/sched
	// stripes projects, so submissions against different tasks never
	// contend on one mutex. Locking invariant: task-scoped mutable state —
	// a Task's NumAnswers/State/Completed fields, a stripe's maps — is
	// accessed either under e.mu held exclusively (replay, snapshot
	// restore, replica reset, export) or under e.mu held shared plus the
	// task's stripe lock (the submit and read paths). e.mu is always
	// taken before a stripe lock, never after.
	stripes [engineStripes]engineStripe

	// In-flight (staged, journal ack pending) intents for the non-striped
	// write paths. Stagers consult these so that two creations racing
	// through the flush window keep exactly the semantics they would have
	// had fully serialized.
	projStages map[string]*projectStage    // project name → staged creation
	extStages  map[int64]map[string]*stage // project id → external id → staged AddTasks

	// replayHorizon is the newest timestamp seen during journal replay;
	// a virtual clock is advanced past it so post-recovery events never
	// duplicate or precede persisted ones.
	replayHorizon time.Time

	// m holds the write path's latency histograms. All nil (free no-ops)
	// when EngineOptions.Metrics is unset.
	m engineMetrics
}

// engineStripes is the task-state lock stripe count. Fixed (not
// configurable like the scheduler's): 64 mutexes cost nothing idle and
// put the collision odds under concurrent submitters low enough that the
// stripe lock never shows up next to the journal flush they all share.
const (
	engineStripeBits = 6
	engineStripes    = 1 << engineStripeBits
)

// engineStripe is one lock stripe of the task-scoped hot state. See the
// locking invariant on Engine.stripes.
type engineStripe struct {
	mu      sync.Mutex
	runs    map[int64][]*TaskRun  // task id → runs, submission order
	flights map[int64]*taskFlight // task id → staged submissions
	// submitQ holds this stripe's staged submissions in stage (= journal
	// = ack) order. Whichever waiter reaches the finalize lock first
	// commits the whole acked prefix in one hold — one stripe acquisition
	// per flush group instead of one per run.
	submitQ []*submitCommit
}

// unstage drops a staged submission's in-flight marker. Callers hold the
// stripe lock (shared e.mu) or e.mu exclusively.
func (s *engineStripe) unstage(taskID int64, workerID string) {
	fl := s.flights[taskID]
	if fl == nil {
		return
	}
	fl.pending--
	delete(fl.workers, workerID)
	if fl.pending <= 0 {
		delete(s.flights, taskID)
	}
}

// stripe maps a task id onto its lock stripe: the top bits of the same
// Fibonacci hash the HTTP layer echoes as the shard key, so consecutive
// task ids scatter across stripes.
func (e *Engine) stripe(taskID int64) *engineStripe {
	return &e.stripes[ShardKey(taskID)>>(64-engineStripeBits)]
}

// engineMetrics are the journaled write path's histograms, one per phase
// of the three-phase commit plus the end-to-end figure.
type engineMetrics struct {
	submit    *obs.Histogram // Submit end to end
	stage     *obs.Histogram // phase 1: validate + reserve under e.mu
	flushWait *obs.Histogram // phase 2: durability wait outside e.mu
	finalize  *obs.Histogram // phase 3: commit memory + scheduler
	tick      atomic.Uint64  // Submit sampling counter (see sampleSubmit)
}

// sampleSubmit decides, once per Submit call, whether this call's phase
// timings are recorded: one decision covers all four histograms, so their
// samples describe the same requests and the boundary clock reads can be
// shared. 1-in-8 sampling keeps those clock reads — the dominant
// instrumentation cost on a microsecond-scale path — inside the 5%
// overhead budget (BenchmarkSubmitBare vs BenchmarkSubmitInstrumented;
// the benchmark's trace.overhead_ratio tracks it per PR); the first call
// is always sampled so even a short-lived process observes something.
// False when metrics are off.
func (m *engineMetrics) sampleSubmit() bool {
	if m.submit == nil {
		return false
	}
	return m.tick.Add(1)&7 == 1
}

// initMetrics registers the engine's families. A nil registry leaves every
// histogram nil — the instrumented sites reduce to branch-only no-ops.
func (m *engineMetrics) init(reg *obs.Registry, e *Engine) {
	if reg == nil {
		return
	}
	m.submit = reg.Histogram("reprowd_engine_submit_seconds",
		"End-to-end Submit latency (stage + group-commit flush + finalize); 1-in-8 sampled — reprowd_journal_committed_events_total has exact rates.", nil)
	m.stage = reg.Histogram("reprowd_engine_stage_seconds",
		"Submit phase 1: validate, reserve ids and enqueue under the registry lock; sampled with reprowd_engine_submit_seconds.", nil)
	m.flushWait = reg.Histogram("reprowd_engine_flush_wait_seconds",
		"Submit phase 2: wait for the journal group commit, registry unlocked; sampled with reprowd_engine_submit_seconds.", nil)
	m.finalize = reg.Histogram("reprowd_engine_finalize_seconds",
		"Submit phase 3: commit the acked prefix to memory and scheduler; sampled with reprowd_engine_submit_seconds.", nil)
	reg.GaugeFunc("reprowd_engine_projects",
		"Projects registered on this engine.", func() float64 {
			e.mu.RLock()
			defer e.mu.RUnlock()
			return float64(len(e.projects))
		})
	reg.GaugeFunc("reprowd_engine_tasks",
		"Tasks registered on this engine.", func() float64 {
			e.mu.RLock()
			defer e.mu.RUnlock()
			return float64(len(e.tasks))
		})
	reg.GaugeFunc("reprowd_engine_runs",
		"Accepted task runs held by this engine.", func() float64 {
			e.mu.RLock()
			defer e.mu.RUnlock()
			return float64(e.countRuns())
		})
}

// EngineOptions configure NewEngineOpts. The zero value (plus a clock)
// matches NewEngine.
type EngineOptions struct {
	// Clock supplies timestamps; nil defaults to a virtual clock.
	Clock vclock.Clock
	// LeaseTTL is how long a task assignment stays reserved before the
	// scheduler reclaims it. Defaults to sched.DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Journal, when non-nil, is the write-ahead log the engine appends
	// every mutation to. Any state already in the journal is replayed
	// into the engine before NewEngineOpts returns.
	Journal *Journal
	// OwnsID, when non-nil, filters id allocation: new project, task and
	// run ids are drawn only from values the predicate accepts. A leader
	// in a partitioned deployment passes repl.Ring ownership of
	// ShardKey(id) here, which gives two properties the ring-routed
	// gateway relies on: ids are globally unique across leaders (each id
	// is owned by exactly one node, and only that node allocates it), and
	// Ring.Lookup(id) finds the node that created — and therefore owns —
	// the project or task. Replayed and replicated events keep their
	// recorded ids regardless of the predicate (history outranks
	// membership changes).
	OwnsID func(id int64) bool
	// Metrics, when non-nil, registers the engine's write-path histograms
	// and registry-size gauges, and is passed down to the scheduler. Nil
	// disables instrumentation at zero hot-path cost.
	Metrics *obs.Registry
}

// NewEngine returns an empty platform. A nil clock defaults to a virtual
// clock, which keeps all timestamps deterministic.
func NewEngine(clock vclock.Clock) *Engine {
	e, err := NewEngineOpts(EngineOptions{Clock: clock})
	if err != nil {
		// Unreachable: only journal replay can fail, and there is none.
		panic(err)
	}
	return e
}

// Clock exposes the engine's injected clock so collaborators built
// around the engine (replication feed, checkpoint cadence, simulation
// harness) pace themselves on the same time source.
func (e *Engine) Clock() vclock.Clock { return e.clock }

// NewEngineOpts returns a platform configured by opts, replaying
// opts.Journal (if any) so the engine starts from its persisted state.
func NewEngineOpts(opts EngineOptions) (*Engine, error) {
	clock := opts.Clock
	if clock == nil {
		clock = vclock.NewVirtual()
	}
	schedOpts := sched.Options{
		LeaseTTL: opts.LeaseTTL,
		Metrics:  opts.Metrics,
	}
	e := &Engine{
		clock:          clock,
		sched:          sched.New(clock, schedOpts),
		schedOpts:      schedOpts,
		ownsID:         opts.OwnsID,
		projects:       make(map[int64]*Project),
		projectsByName: make(map[string]int64),
		projectTasks:   make(map[int64][]int64),
		externalIDs:    make(map[int64]map[string]int64),
		tasks:          make(map[int64]*Task),
		banned:         make(map[int64]map[string]bool),
		projStages:     make(map[string]*projectStage),
		extStages:      make(map[int64]map[string]*stage),
	}
	for i := range e.stripes {
		e.stripes[i].runs = make(map[int64][]*TaskRun)
		e.stripes[i].flights = make(map[int64]*taskFlight)
	}
	e.m.init(opts.Metrics, e)
	if opts.Journal != nil {
		// Recovery is load-latest-snapshot + replay-tail: a snapshot cut
		// at sequence S restores the state of events [0, S) directly, and
		// only events at or above S replay — bounded by the checkpoint
		// interval, not the full history. Without a snapshot, start is 0
		// and this is the old full replay.
		start := uint64(0)
		if st, ok, err := loadSnapshotState(opts.Journal.db); err != nil {
			return nil, fmt.Errorf("platform: snapshot load: %w", err)
		} else if ok {
			if err := e.restoreSnapshot(st); err != nil {
				return nil, fmt.Errorf("platform: snapshot restore: %w", err)
			}
			start = st.Seq
		}
		if err := opts.Journal.ReplayFrom(start, e.apply); err != nil {
			return nil, fmt.Errorf("platform: journal replay: %w", err)
		}
		// Replay restores recorded timestamps without ticking the clock.
		// A deterministic virtual clock would restart at its epoch and
		// hand out times that collide with (or precede) persisted ones,
		// breaking the total order lineage relies on — move it past
		// everything it has already "seen". Wall clocks are naturally
		// ahead of any previous run.
		if v, ok := clock.(*vclock.Virtual); ok {
			v.AdvanceTo(e.replayHorizon)
		}
		e.journal = opts.Journal
	}
	return e, nil
}

var _ Client = (*Engine)(nil)

// nextOwnedID advances cur to the next id the engine may allocate: the
// next integer without an OwnsID filter, otherwise the next accepted one.
// The scan is bounded so a filter that rejects everything (a ring this
// node is not a member of) cannot hang allocation — but the escape is an
// error, not an unowned id: ids are globally unique only because every
// node allocates strictly inside its own partition, so minting an unowned
// id would let the id's true owner allocate the same one later and
// silently collide records across partitions. A misconfigured ring must
// fail fast instead. Callers hold e.mu.
func (e *Engine) nextOwnedID(cur int64) (int64, error) {
	return nextOwnedIDAfter(cur, e.ownsID)
}

// nextOwnedIDAfter is the pure scan behind nextOwnedID, shared with the
// lock-free run id reservation.
func nextOwnedIDAfter(cur int64, owns func(id int64) bool) (int64, error) {
	cur++
	if owns == nil {
		return cur, nil
	}
	const maxIDScan = 1 << 20
	for i := 0; i < maxIDScan; i++ {
		if owns(cur) {
			return cur, nil
		}
		cur++
	}
	return 0, fmt.Errorf("platform: id allocation found no owned id in %d candidates above %d; the ownership filter (ring membership) rejects everything — check that this node's -ring includes its own name", maxIDScan, cur-maxIDScan)
}

// reserveRunID claims the next owned run id by CAS on the high-water
// mark: submissions staging concurrently under the shared registry lock
// each get a distinct, strictly increasing, ring-owned id without any
// mutex. A lost race rescans from the new mark (the ownership filter is
// immutable, so rescanning is pure).
func (e *Engine) reserveRunID() (int64, error) {
	for {
		cur := e.nextRunID.Load()
		id, err := nextOwnedIDAfter(cur, e.ownsID)
		if err != nil {
			return 0, err
		}
		if e.nextRunID.CompareAndSwap(cur, id) {
			return id, nil
		}
	}
}

// schedStrategy maps the wire strategy onto the scheduler's.
func schedStrategy(s Strategy) sched.Strategy {
	if s == DepthFirst {
		return sched.DepthFirst
	}
	return sched.BreadthFirst
}

// taskFlight tracks one task's staged-but-unflushed submissions so that
// concurrent stagers preview the scheduler outcome as if every in-flight
// run had already committed.
type taskFlight struct {
	pending  int                 // staged runs awaiting their journal ack
	workers  map[string]struct{} // who staged them (duplicate gate)
	retiring bool                // a staged run will complete the task
}

// stage is a generic in-flight marker other callers can wait on: done is
// closed at finalize, after err and any result fields are set.
type stage struct {
	done chan struct{}
	err  error
}

// projectStage is an in-flight EnsureProject; racers for the same name
// wait on it and then re-read the registry.
type projectStage struct {
	stage
	p *Project
}

// EnsureProject implements Client.
func (e *Engine) EnsureProject(spec ProjectSpec) (Project, error) {
	if spec.Name == "" {
		return Project{}, fmt.Errorf("%w: project name must not be empty", ErrBadRequest)
	}
	if spec.Redundancy <= 0 {
		spec.Redundancy = 1
	}
	if spec.Strategy == "" {
		spec.Strategy = BreadthFirst
	}
	e.mu.Lock()
	if e.readOnly {
		e.mu.Unlock()
		return Project{}, ErrReadOnly
	}
	for {
		if id, ok := e.projectsByName[spec.Name]; ok {
			p := *e.projects[id]
			e.mu.Unlock()
			return p, nil
		}
		st, ok := e.projStages[spec.Name]
		if !ok {
			break
		}
		// Another caller is flushing this name; adopt its outcome.
		e.mu.Unlock()
		<-st.done
		if st.err != nil {
			return Project{}, st.err
		}
		e.mu.Lock()
	}
	// Stage: reserve the id and build the record under e.mu.
	id, err := e.nextOwnedID(e.nextProjectID)
	if err != nil {
		e.mu.Unlock()
		return Project{}, err
	}
	e.nextProjectID = id
	p := &Project{
		ID:         id,
		Name:       spec.Name,
		Presenter:  spec.Presenter,
		Redundancy: spec.Redundancy,
		Strategy:   spec.Strategy,
		Created:    e.clock.Now(),
	}
	if e.journal == nil {
		e.insertProject(p)
		e.mu.Unlock()
		return *p, nil
	}
	st := &projectStage{stage: stage{done: make(chan struct{})}, p: p}
	e.projStages[spec.Name] = st
	ticket, err := e.journal.Enqueue(Event{Op: OpProject, Project: p})
	if err != nil {
		delete(e.projStages, spec.Name)
		st.err = err
		e.mu.Unlock()
		close(st.done)
		return Project{}, err
	}
	e.mu.Unlock()

	// Flush: wait for the group commit with the registry unlocked.
	werr := ticket.Wait()

	// Finalize.
	e.mu.Lock()
	delete(e.projStages, spec.Name)
	if werr == nil {
		e.insertProject(p)
	}
	st.err = werr
	e.mu.Unlock()
	close(st.done)
	if werr != nil {
		return Project{}, werr
	}
	return *p, nil
}

// insertProject registers p in the engine maps and the scheduler.
// Callers hold e.mu.
func (e *Engine) insertProject(p *Project) {
	e.projects[p.ID] = p
	e.projectsByName[p.Name] = p.ID
	e.externalIDs[p.ID] = make(map[string]int64)
	if p.ID > e.nextProjectID {
		e.nextProjectID = p.ID
	}
	e.sched.AddProject(p.ID, schedStrategy(p.Strategy))
}

// FindProject implements Client.
func (e *Engine) FindProject(name string) (Project, bool, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	id, ok := e.projectsByName[name]
	if !ok {
		return Project{}, false, nil
	}
	return *e.projects[id], true, nil
}

// AddTasks implements Client. Specs with an ExternalID already present in
// the project map to the existing task, making publication idempotent —
// including against a concurrent AddTasks still waiting on its journal
// ack, which this call waits out rather than double-creating.
func (e *Engine) AddTasks(projectID int64, specs []TaskSpec) ([]Task, error) {
	e.mu.Lock()
	if e.readOnly {
		e.mu.Unlock()
		return nil, ErrReadOnly
	}
restage:
	p, ok := e.projects[projectID]
	if !ok {
		e.mu.Unlock()
		return nil, ErrUnknownProject
	}
	// If another publish is in flight for any of these external ids, wait
	// for it to settle and stage again: its tasks will then be committed
	// (dedup hit) or rolled back (we create them).
	if stages := e.extStages[projectID]; len(stages) > 0 {
		for _, spec := range specs {
			if spec.ExternalID == "" {
				continue
			}
			if st, ok := stages[spec.ExternalID]; ok {
				e.mu.Unlock()
				<-st.done
				e.mu.Lock()
				goto restage
			}
		}
	}
	// Stage: build the new tasks and reserve their ids under e.mu.
	out := make([]Task, 0, len(specs))
	var created []*Task
	newByExt := make(map[string]*Task)
	nextID := e.nextTaskID
	for _, spec := range specs {
		if spec.ExternalID != "" {
			if tid, ok := e.externalIDs[projectID][spec.ExternalID]; ok {
				out = append(out, *e.tasks[tid])
				continue
			}
			if t, ok := newByExt[spec.ExternalID]; ok {
				out = append(out, *t)
				continue
			}
		}
		red := spec.Redundancy
		if red <= 0 {
			red = p.Redundancy
		}
		nid, err := e.nextOwnedID(nextID)
		if err != nil {
			e.mu.Unlock()
			return nil, err
		}
		nextID = nid
		t := &Task{
			ID:         nextID,
			ProjectID:  projectID,
			ExternalID: spec.ExternalID,
			Payload:    copyPayload(spec.Payload),
			Redundancy: red,
			Priority:   spec.Priority,
			State:      TaskOngoing,
			Created:    e.clock.Now(),
		}
		if spec.ExternalID != "" {
			newByExt[spec.ExternalID] = t
		}
		created = append(created, t)
		out = append(out, *t)
	}
	if len(created) == 0 {
		e.mu.Unlock()
		return out, nil
	}
	e.nextTaskID = nextID
	snap := make([]Task, len(created))
	for i, t := range created {
		snap[i] = *t
	}
	if e.journal == nil {
		defer e.mu.Unlock()
		for _, t := range created {
			if err := e.insertTask(t); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	st := &stage{done: make(chan struct{})}
	for ext := range newByExt {
		if e.extStages[projectID] == nil {
			e.extStages[projectID] = make(map[string]*stage)
		}
		e.extStages[projectID][ext] = st
	}
	unstage := func() {
		for ext := range newByExt {
			delete(e.extStages[projectID], ext)
		}
	}
	ticket, err := e.journal.Enqueue(Event{Op: OpTasks, ProjectID: projectID, Tasks: snap})
	if err != nil {
		unstage()
		st.err = err
		e.mu.Unlock()
		close(st.done)
		return nil, err
	}
	e.mu.Unlock()

	// Flush.
	werr := ticket.Wait()

	// Finalize.
	e.mu.Lock()
	unstage()
	if werr == nil {
		for _, t := range created {
			if ierr := e.insertTask(t); ierr != nil && werr == nil {
				werr = ierr
			}
		}
	}
	st.err = werr
	e.mu.Unlock()
	close(st.done)
	if werr != nil {
		return nil, werr
	}
	return out, nil
}

// insertTask registers t in the engine maps and, while it still needs
// answers, in the scheduler. Callers hold e.mu and guarantee the task's
// project exists (the journal's WAL ordering guarantees it on replay).
func (e *Engine) insertTask(t *Task) error {
	if _, ok := e.projects[t.ProjectID]; !ok {
		return fmt.Errorf("%w: task %d references project %d", ErrUnknownProject, t.ID, t.ProjectID)
	}
	e.tasks[t.ID] = t
	e.projectTasks[t.ProjectID] = append(e.projectTasks[t.ProjectID], t.ID)
	if t.ExternalID != "" {
		e.externalIDs[t.ProjectID][t.ExternalID] = t.ID
	}
	if t.ID > e.nextTaskID {
		e.nextTaskID = t.ID
	}
	if t.State == TaskOngoing {
		if err := e.sched.AddTask(t.ProjectID, t.ID, t.Priority, t.Redundancy); err != nil {
			return fmt.Errorf("platform: register task %d with scheduler: %w", t.ID, err)
		}
	}
	return nil
}

// RequestTask implements Client. Assignment is delegated to the sched
// subsystem: the project's heap hands back the best task this worker can
// still answer — ordered by strategy, then priority (higher first), then
// task id (lower first), exactly the old linear scan's tie-break — and
// records a TTL lease on it. The registry lock is held shared, so
// concurrent requests only serialize per scheduler shard.
func (e *Engine) RequestTask(projectID int64, workerID string) (Task, error) {
	if workerID == "" {
		return Task{}, fmt.Errorf("%w: worker id must not be empty", ErrBadRequest)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.readOnly {
		// Assignment takes a lease — scheduler state the leader would
		// never see — so a replica must not hand out tasks.
		return Task{}, ErrReadOnly
	}
	if _, ok := e.projects[projectID]; !ok {
		return Task{}, ErrUnknownProject
	}
	if e.banned[projectID][workerID] {
		return Task{}, ErrWorkerBanned
	}
	taskID, _, err := e.sched.Acquire(projectID, workerID)
	switch err {
	case nil:
	case sched.ErrNoTask:
		return Task{}, ErrNoTask
	case sched.ErrNoTaskLeft:
		return Task{}, ErrNoTaskLeft
	case sched.ErrUnknownProject:
		return Task{}, ErrUnknownProject
	default:
		return Task{}, err
	}
	// Task fields mutate under the stripe lock; copy under it so the
	// assignment never observes a half-applied submission.
	s := e.stripe(taskID)
	s.mu.Lock()
	t := *e.tasks[taskID]
	s.mu.Unlock()
	return t, nil
}

// submitCommit is one staged submission riding the journal pipeline:
// everything finalize needs, reserved at stage time.
type submitCommit struct {
	run      *TaskRun
	t        *Task
	retiring bool
	ticket   *Ticket
	done     chan struct{} // closed once finalized (possibly by another waiter)
	err      error         // flush or commit failure; valid after done
}

// Submit implements Client. The hot path never takes the registry lock
// exclusively: staging runs under e.mu shared plus the task's stripe lock
// (the scheduler outcome is previewed and the run id CAS-reserved, with
// in-flight submissions counted via the stripe's flights so racing
// previews can't over-admit), the durability wait happens outside both,
// and memory + scheduler commit only after the journal acks — whole flush
// groups at a time per stripe, by whichever waiter gets there first.
// Submissions against different tasks therefore contend only on the
// journal's group commit, not on one registry mutex.
func (e *Engine) Submit(taskID int64, workerID, answer string) (TaskRun, error) {
	if workerID == "" {
		return TaskRun{}, fmt.Errorf("%w: worker id must not be empty", ErrBadRequest)
	}
	// Phase timings share one sampling decision and one clock read per
	// phase boundary (each stamp ends one phase and starts the next).
	timed := e.m.sampleSubmit()
	var t0 time.Time
	if timed {
		t0 = obs.Now()
	}
	e.mu.RLock()
	if e.readOnly {
		e.mu.RUnlock()
		return TaskRun{}, ErrReadOnly
	}
	s := e.stripe(taskID)
	s.mu.Lock()
	run, t, retiring, ticket, err := e.stageSubmit(s, taskID, workerID, answer)
	if err != nil {
		s.mu.Unlock()
		e.mu.RUnlock()
		return TaskRun{}, err
	}
	if ticket == nil {
		// No journal: stage and commit are one critical section.
		err := e.commitSubmit(run, t, retiring)
		s.mu.Unlock()
		e.mu.RUnlock()
		if err != nil {
			return TaskRun{}, err
		}
		if timed {
			e.m.submit.Stop(t0)
		}
		return *run, nil
	}
	sc := &submitCommit{run: run, t: t, retiring: retiring, ticket: ticket, done: make(chan struct{})}
	s.submitQ = append(s.submitQ, sc)
	s.mu.Unlock()
	e.mu.RUnlock()
	var t1 time.Time
	if timed {
		t1 = obs.Now()
		e.m.stage.Observe(t1.Sub(t0).Seconds())
	}

	// Flush: block on the committer's ack with the registry unlocked;
	// concurrent submissions pile into the same flush group.
	ticket.Wait()
	var t2 time.Time
	if timed {
		t2 = obs.Now()
		e.m.flushWait.Observe(t2.Sub(t1).Seconds())
	}

	// Finalize. Our whole group acked together, so a waiter ahead of us
	// may have committed our run already; otherwise drain the stripe's
	// acked prefix (ours included — everything before us acked first).
	select {
	case <-sc.done:
	default:
		e.drainSubmits(s)
		<-sc.done
	}
	if sc.err != nil {
		return TaskRun{}, sc.err
	}
	if timed {
		t3 := obs.Now()
		e.m.finalize.Observe(t3.Sub(t2).Seconds())
		e.m.submit.Observe(t3.Sub(t0).Seconds())
	}
	return *run, nil
}

// drainSubmits finalizes every staged submission in the stripe whose
// journal ack has arrived, in stage order, under one stripe lock hold.
// Ack order equals stage order (both fixed under the stripe lock, and
// the journal acks in enqueue order), so the acked entries always form a
// prefix of the stripe's submitQ and committing them in queue order
// reproduces exactly the journal's — and therefore replay's — per-task
// history.
func (e *Engine) drainSubmits(s *engineStripe) {
	var ready []*submitCommit
	e.mu.RLock()
	s.mu.Lock()
	for len(s.submitQ) > 0 {
		sc := s.submitQ[0]
		select {
		case <-sc.ticket.Done():
		default:
			// Not acked yet — neither is anything behind it here.
			s.mu.Unlock()
			e.mu.RUnlock()
			e.closeReady(ready)
			return
		}
		s.submitQ = s.submitQ[1:]
		s.unstage(sc.run.TaskID, sc.run.WorkerID)
		if err := sc.ticket.Err(); err != nil {
			sc.err = err
		} else {
			sc.err = e.commitSubmit(sc.run, sc.t, sc.retiring)
		}
		ready = append(ready, sc)
	}
	s.mu.Unlock()
	e.mu.RUnlock()
	e.closeReady(ready)
}

// closeReady wakes the waiters of finalized submissions.
func (e *Engine) closeReady(ready []*submitCommit) {
	for _, sc := range ready {
		close(sc.done)
	}
}

// stageSubmit validates a submission and reserves its outcome under the
// shared registry lock plus the task's stripe lock: the run id, the
// timestamps, and whether this run completes the task (counting
// submissions still waiting on their journal ack). With a journal it
// records the in-flight intent and enqueues the event — under the stripe
// lock, so journal order equals stage order equals replay order for
// every event touching this task.
func (e *Engine) stageSubmit(s *engineStripe, taskID int64, workerID, answer string) (*TaskRun, *Task, bool, *Ticket, error) {
	t, ok := e.tasks[taskID]
	if !ok {
		return nil, nil, false, nil, ErrUnknownTask
	}
	if e.banned[t.ProjectID][workerID] {
		return nil, nil, false, nil, ErrWorkerBanned
	}
	fl := s.flights[taskID]
	if fl != nil {
		if _, dup := fl.workers[workerID]; dup {
			return nil, nil, false, nil, ErrDuplicateAnswer
		}
	}
	if t.State == TaskCompleted {
		// The scheduler has retired the task; its runs are the record of
		// who answered, preserving the duplicate-before-completed error
		// precedence of the pre-sched engine.
		for _, r := range s.runs[taskID] {
			if r.WorkerID == workerID {
				return nil, nil, false, nil, ErrDuplicateAnswer
			}
		}
		return nil, nil, false, nil, ErrTaskCompleted
	}
	if fl != nil && fl.retiring {
		// An in-flight run will retire the task; this submission
		// semantically arrives after it.
		return nil, nil, false, nil, ErrTaskCompleted
	}

	// The clock ticks at most once per submission, and only after
	// validation passes — sched.Preview calls now() after its own
	// duplicate check, and we reuse the memoized value below.
	var (
		now     time.Time
		haveNow bool
	)
	clockNow := func() time.Time {
		if !haveNow {
			now = e.clock.Now()
			haveNow = true
		}
		return now
	}
	res, err := e.sched.Preview(t.ProjectID, taskID, workerID, clockNow)
	switch err {
	case nil:
	case sched.ErrDuplicate:
		return nil, nil, false, nil, ErrDuplicateAnswer
	case sched.ErrUnknownTask:
		return nil, nil, false, nil, ErrTaskCompleted
	default:
		return nil, nil, false, nil, err
	}
	pending := 0
	if fl != nil {
		pending = fl.pending
	}
	// res.Answers counts committed answers + this one; staged runs ahead
	// of us will commit first (same order as the journal).
	retiring := res.Answers+pending >= t.Redundancy

	runID, err := e.reserveRunID()
	if err != nil {
		return nil, nil, false, nil, err
	}
	run := &TaskRun{
		ID:        runID,
		TaskID:    taskID,
		ProjectID: t.ProjectID,
		WorkerID:  workerID,
		Answer:    answer,
		Assigned:  res.AssignedAt,
		Finished:  clockNow(),
	}
	if e.journal == nil {
		return run, t, retiring, nil, nil
	}
	if fl == nil {
		fl = &taskFlight{workers: make(map[string]struct{})}
		s.flights[taskID] = fl
	}
	fl.pending++
	fl.workers[workerID] = struct{}{}
	if retiring {
		fl.retiring = true
	}
	ticket, err := e.journal.Enqueue(Event{Op: OpRun, Run: run})
	if err != nil {
		s.unstage(taskID, workerID)
		return nil, nil, false, nil, err
	}
	return run, t, retiring, ticket, nil
}

// commitSubmit applies a staged submission to the scheduler and the
// registry, using the values reserved at stage time. Callers hold the
// task's stripe lock (with e.mu shared) or e.mu exclusively.
func (e *Engine) commitSubmit(run *TaskRun, t *Task, retiring bool) error {
	if _, err := e.sched.Complete(t.ProjectID, run.TaskID, run.WorkerID,
		func() time.Time { return run.Finished }); err != nil {
		// Unreachable while staging gates admissions; surface loudly
		// rather than diverge silently from the journal.
		return fmt.Errorf("platform: scheduler commit after journal append: %w", err)
	}
	e.applyRun(run, t, retiring)
	return nil
}

// applyRun records a completed run against its task. retired must be the
// verdict of the run's own admission (staged preview, or sched.Complete
// on replay) — runs in one flush group can finalize out of order, and
// only the staged-retiring run carries the completion timestamp replay
// will reproduce. Callers hold the task's stripe lock (with e.mu shared)
// or e.mu exclusively.
func (e *Engine) applyRun(run *TaskRun, t *Task, retired bool) {
	s := e.stripe(run.TaskID)
	s.runs[run.TaskID] = append(s.runs[run.TaskID], run)
	for {
		cur := e.nextRunID.Load()
		if run.ID <= cur || e.nextRunID.CompareAndSwap(cur, run.ID) {
			break
		}
	}
	t.NumAnswers++
	if retired {
		t.State = TaskCompleted
		t.Completed = run.Finished
	}
}

// Tasks implements Client. Each task is copied under its stripe lock:
// the registry lock is only held shared, so a concurrent submission may
// be mutating a task's answer count, and the stripe lock is what makes
// the copy a consistent point-in-time view of that task.
func (e *Engine) Tasks(projectID int64) ([]Task, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if _, ok := e.projects[projectID]; !ok {
		return nil, ErrUnknownProject
	}
	ids := e.projectTasks[projectID]
	out := make([]Task, 0, len(ids))
	for _, tid := range ids {
		s := e.stripe(tid)
		s.mu.Lock()
		out = append(out, *e.tasks[tid])
		s.mu.Unlock()
	}
	return out, nil
}

// Runs implements Client.
func (e *Engine) Runs(taskID int64) ([]TaskRun, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if _, ok := e.tasks[taskID]; !ok {
		return nil, ErrUnknownTask
	}
	s := e.stripe(taskID)
	s.mu.Lock()
	defer s.mu.Unlock()
	runs := s.runs[taskID]
	out := make([]TaskRun, 0, len(runs))
	for _, r := range runs {
		out = append(out, *r)
	}
	return out, nil
}

// Stats implements Client.
func (e *Engine) Stats(projectID int64) (ProjectStats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if _, ok := e.projects[projectID]; !ok {
		return ProjectStats{}, ErrUnknownProject
	}
	st := ProjectStats{ProjectID: projectID}
	workers := map[string]bool{}
	for _, tid := range e.projectTasks[projectID] {
		st.Tasks++
		s := e.stripe(tid)
		s.mu.Lock()
		if e.tasks[tid].State == TaskCompleted {
			st.CompletedTasks++
		}
		for _, r := range s.runs[tid] {
			st.TaskRuns++
			workers[r.WorkerID] = true
		}
		s.mu.Unlock()
	}
	st.Workers = len(workers)
	return st, nil
}

// countRuns sums accepted runs across the stripes. Callers hold e.mu in
// any mode.
func (e *Engine) countRuns() int {
	n := 0
	for i := range e.stripes {
		s := &e.stripes[i]
		s.mu.Lock()
		for _, runs := range s.runs {
			n += len(runs)
		}
		s.mu.Unlock()
	}
	return n
}

// QueueStats reports the scheduler's view of a project: open tasks still
// in the assignment queue and outstanding leases. (Engine-only helper,
// surfaced by the REST server's queue endpoint.)
func (e *Engine) QueueStats(projectID int64) (sched.QueueStats, error) {
	e.mu.RLock()
	if _, ok := e.projects[projectID]; !ok {
		e.mu.RUnlock()
		return sched.QueueStats{}, ErrUnknownProject
	}
	e.mu.RUnlock()
	st, err := e.sched.Stats(projectID)
	if err == sched.ErrUnknownProject {
		return sched.QueueStats{}, ErrUnknownProject
	}
	return st, err
}

// PlatformStats is the platform-wide view the stats endpoint serves:
// registry sizes plus, when a journal is attached, the group-commit
// pipeline's counters and the backing store's.
type PlatformStats struct {
	Projects int `json:"projects"`
	Tasks    int `json:"tasks"`
	Runs     int `json:"runs"`
	// Journal and Storage are nil for an in-memory engine; Snapshot is
	// nil unless a checkpointer is attached; Repl is nil unless a
	// replication node (leader or follower) is attached.
	Journal  *JournalStats  `json:"journal,omitempty"`
	Storage  *storage.Stats `json:"storage,omitempty"`
	Snapshot *SnapshotStats `json:"snapshot,omitempty"`
	Repl     *ReplStats     `json:"repl,omitempty"`
}

// ReplStats is the replication subsystem's view of this node, surfaced on
// GET /api/stats and /api/healthz. The platform package defines the wire
// shape; internal/repl fills it in.
type ReplStats struct {
	// Role is "leader", "follower", or "standalone" (no replication).
	Role string `json:"role"`
	// Ready reports whether the node can serve its role: a leader after
	// recovery, a follower once bootstrapped and streaming.
	Ready bool `json:"ready"`
	// AppliedSeq is the next journal sequence this node's state reflects:
	// the journal length on a leader, the applied stream position on a
	// follower.
	AppliedSeq uint64 `json:"applied_seq"`
	// LeaderSeq is the leader's journal length as last observed by a
	// follower (0 on a leader).
	LeaderSeq uint64 `json:"leader_seq,omitempty"`
	// Lag is LeaderSeq - AppliedSeq on a follower: committed leader
	// events not yet applied here.
	Lag uint64 `json:"lag"`
	// LeaderURL is the leader a follower streams from.
	LeaderURL string `json:"leader_url,omitempty"`
	// Connected reports whether a follower's stream loop reached the
	// leader on its most recent attempt.
	Connected bool `json:"connected,omitempty"`
	// SnapshotSeq is the cut point of the snapshot a follower
	// bootstrapped from (0 = bootstrapped from an empty leader).
	SnapshotSeq uint64 `json:"bootstrap_snapshot_seq,omitempty"`
	// Rebootstraps counts the times a follower had to discard its state
	// and reload a newer leader snapshot because the journal events it
	// needed were truncated (a symptom of lagging past the leader's
	// checkpoint interval).
	Rebootstraps uint64 `json:"rebootstraps,omitempty"`
	// ActiveStreams counts follower streams a leader is serving now.
	ActiveStreams int64 `json:"active_streams,omitempty"`
	// EventsStreamed counts events a leader has shipped to followers.
	EventsStreamed uint64 `json:"events_streamed,omitempty"`
	// LastError is the follower loop's most recent failure ("" = none).
	// A snapshot-required error means the follower fell behind a journal
	// truncation and must be restarted to re-bootstrap.
	LastError string `json:"last_error,omitempty"`
	// Epoch/EpochHolder are the node's fencing token (see EpochToken): on
	// a leader the token its journal was promoted in, on a follower the
	// newest token observed on the replication stream. Zero/"" on nodes
	// that predate epochs or were never promoted.
	Epoch       uint64 `json:"epoch,omitempty"`
	EpochHolder string `json:"epoch_holder,omitempty"`
	// Fenced reports a deposed leader: a newer epoch token was proven and
	// every write is rejected until the node rejoins as a follower.
	Fenced bool `json:"fenced,omitempty"`
	// Partition is the ring partition this node serves (its own name on a
	// leader, the leader's name on a follower). Empty when the node was
	// not told its identity (pre-election deployments); routers fall back
	// to associating followers by LeaderURL.
	Partition string `json:"partition,omitempty"`
}

// PlatformStats summarizes the whole engine. (Engine-only helper,
// surfaced by the REST server's GET /api/stats.)
func (e *Engine) PlatformStats() PlatformStats {
	e.mu.RLock()
	st := PlatformStats{
		Projects: len(e.projects),
		Tasks:    len(e.tasks),
		Runs:     e.countRuns(),
	}
	j, snap, repl := e.journal, e.snap, e.replStats
	e.mu.RUnlock()
	if j != nil {
		js := j.Stats()
		ss := j.StorageStats()
		st.Journal = &js
		st.Storage = &ss
	}
	if snap != nil {
		ss := snap.Stats()
		st.Snapshot = &ss
	}
	if repl != nil {
		rs := repl()
		st.Repl = &rs
	}
	return st
}

// SetReplStatsFunc registers the replication subsystem's stats provider,
// surfaced on /api/stats and /api/healthz.
func (e *Engine) SetReplStatsFunc(fn func() ReplStats) {
	e.mu.Lock()
	e.replStats = fn
	e.mu.Unlock()
}

// ReplStats reports the replication view: the registered provider's, or a
// synthesized standalone entry (role from whether a journal is attached).
func (e *Engine) ReplStats() ReplStats {
	e.mu.RLock()
	fn, j := e.replStats, e.journal
	e.mu.RUnlock()
	if fn != nil {
		return fn()
	}
	st := ReplStats{Role: "standalone", Ready: true}
	if j != nil {
		st.AppliedSeq = j.Len()
	}
	return st
}

// SetEpochGuard registers the replication node's fencing check (see
// Engine.epochGuard). The HTTP layer consults it via CheckEpoch on every
// write.
func (e *Engine) SetEpochGuard(fn func(EpochToken) error) {
	e.mu.Lock()
	e.epochGuard = fn
	e.mu.Unlock()
}

// CheckEpoch runs the write-path fencing check: nil when the stamped
// token (zero = unstamped) may proceed, ErrStaleEpoch when the stamp
// proves this node was deposed, ErrFenced when the node already knows it
// was. An engine without a guard (standalone) accepts everything.
func (e *Engine) CheckEpoch(tok EpochToken) error {
	e.mu.RLock()
	guard := e.epochGuard
	e.mu.RUnlock()
	if guard == nil {
		return nil
	}
	return guard(tok)
}

// SetReadOnly puts the engine in replica mode: external mutations return
// ErrReadOnly (the HTTP layer redirects them to leaderURL when non-empty)
// and state advances only through ApplyReplicated.
func (e *Engine) SetReadOnly(leaderURL string) {
	e.mu.Lock()
	e.readOnly = true
	e.leaderURL = leaderURL
	e.mu.Unlock()
}

// ReadOnly reports replica mode and the leader to redirect writes to.
func (e *Engine) ReadOnly() (bool, string) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.readOnly, e.leaderURL
}

// ApplyReplicated applies one event shipped from the leader's journal
// through the same replay path a restart uses, which is what makes a
// caught-up follower byte-identical to the leader by construction. It is
// replica-only: a journaled engine already owns its history and must
// never apply someone else's on top.
func (e *Engine) ApplyReplicated(ev Event) error {
	e.mu.RLock()
	journaled, ro := e.journal != nil, e.readOnly
	e.mu.RUnlock()
	if journaled || !ro {
		return fmt.Errorf("platform: ApplyReplicated on a non-replica engine")
	}
	return e.apply(ev)
}

// Promote turns a read replica into a leader: the virtual clock (if any)
// is advanced past every replicated timestamp — exactly what recovery
// does after replay, and for the same reason — writes are accepted again,
// and j (which may be nil for an ephemeral promotion) becomes the
// engine's journal. The caller is responsible for seeding j's store so
// its sequence numbers continue where the replica stopped applying
// (SeedJournalCut + a snapshot record at the same cut).
func (e *Engine) Promote(j *Journal) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.readOnly {
		return fmt.Errorf("platform: promote: engine is not a replica")
	}
	if e.journal != nil {
		return fmt.Errorf("platform: promote: engine already has a journal")
	}
	if v, ok := e.clock.(*vclock.Virtual); ok {
		v.AdvanceTo(e.replayHorizon)
	}
	e.readOnly = false
	e.leaderURL = ""
	e.journal = j
	return nil
}

// attachCheckpointer records the engine's snapshot checkpointer so the
// stats endpoint can surface its counters.
func (e *Engine) attachCheckpointer(c *Checkpointer) {
	e.mu.Lock()
	e.snap = c
	e.mu.Unlock()
}

// taskProject resolves a task id to its project id (for the HTTP layer's
// shard-key echo; false when the task is unknown).
func (e *Engine) taskProject(taskID int64) (int64, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tasks[taskID]
	if !ok {
		return 0, false
	}
	return t.ProjectID, true
}

// taskWithProject fetches a task and its project in one lock acquisition
// (used by the preview route). The task copy takes the stripe lock; the
// project record is immutable after insertion, so the shared registry
// lock suffices for it.
func (e *Engine) taskWithProject(taskID int64) (Task, Project, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tasks[taskID]
	if !ok {
		return Task{}, Project{}, ErrUnknownTask
	}
	p := e.projects[t.ProjectID]
	s := e.stripe(taskID)
	s.mu.Lock()
	tc := *t
	s.mu.Unlock()
	return tc, *p, nil
}

// BanWorker implements Client. Existing answers by the worker are kept
// (they can be discounted by quality control); the worker simply cannot
// contribute further.
func (e *Engine) BanWorker(projectID int64, workerID string) error {
	if workerID == "" {
		return fmt.Errorf("%w: worker id must not be empty", ErrBadRequest)
	}
	e.mu.Lock()
	if e.readOnly {
		e.mu.Unlock()
		return ErrReadOnly
	}
	if _, ok := e.projects[projectID]; !ok {
		e.mu.Unlock()
		return ErrUnknownProject
	}
	if e.journal == nil {
		e.applyBan(projectID, workerID)
		e.mu.Unlock()
		return nil
	}
	ticket, err := e.journal.Enqueue(Event{Op: OpBan, ProjectID: projectID, Worker: workerID})
	e.mu.Unlock()
	if err != nil {
		return err
	}
	// The ban takes effect when durable; submissions staged before it in
	// the journal land first, exactly as replay will see them.
	if err := ticket.Wait(); err != nil {
		return err
	}
	e.mu.Lock()
	e.applyBan(projectID, workerID)
	e.mu.Unlock()
	return nil
}

// observeReplayTime widens the replay horizon. Callers hold e.mu.
func (e *Engine) observeReplayTime(t time.Time) {
	if t.After(e.replayHorizon) {
		e.replayHorizon = t
	}
}

// applyBan records a ban. Callers hold e.mu.
func (e *Engine) applyBan(projectID int64, workerID string) {
	if e.banned[projectID] == nil {
		e.banned[projectID] = make(map[string]bool)
	}
	e.banned[projectID][workerID] = true
}

// apply replays one journal event into the engine, restoring the exact
// recorded state — ids, timestamps, completion status — rather than
// re-deriving it from the clock. Called during NewEngineOpts with
// e.recovered set, so nothing is re-appended.
func (e *Engine) apply(ev Event) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch ev.Op {
	case OpProject:
		if ev.Project == nil {
			return fmt.Errorf("%w: project event without project", ErrBadRequest)
		}
		p := *ev.Project
		e.observeReplayTime(p.Created)
		e.insertProject(&p)
	case OpTasks:
		for i := range ev.Tasks {
			t := ev.Tasks[i]
			t.Payload = copyPayload(t.Payload)
			e.observeReplayTime(t.Created)
			if err := e.insertTask(&t); err != nil {
				return err
			}
		}
	case OpRun:
		if ev.Run == nil {
			return fmt.Errorf("%w: run event without run", ErrBadRequest)
		}
		run := *ev.Run
		t, ok := e.tasks[run.TaskID]
		if !ok {
			return fmt.Errorf("%w: run %d references unknown task %d", ErrUnknownTask, run.ID, run.TaskID)
		}
		e.observeReplayTime(run.Finished)
		res, err := e.sched.Complete(t.ProjectID, run.TaskID, run.WorkerID,
			func() time.Time { return run.Finished })
		if err != nil {
			return fmt.Errorf("platform: replay run %d: %w", run.ID, err)
		}
		e.applyRun(&run, t, res.Retired)
	case OpBan:
		e.applyBan(ev.ProjectID, ev.Worker)
	default:
		return fmt.Errorf("platform: unknown journal op %q", ev.Op)
	}
	return nil
}

// BannedWorkers lists a project's banned workers, sorted.
func (e *Engine) BannedWorkers(projectID int64) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.banned[projectID]))
	for w := range e.banned[projectID] {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Projects lists all projects ordered by id. (Engine-only helper, used by
// the REST server's listing endpoint and the CLI.)
func (e *Engine) Projects() []Project {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]Project, 0, len(e.projects))
	for _, p := range e.projects {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func copyPayload(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
