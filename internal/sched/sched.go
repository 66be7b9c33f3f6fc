// Package sched is the platform's task-scheduling subsystem.
//
// The original Reprowd delegated assignment to PyBossa's scheduler; the
// seed of this reproduction inlined a toy version of it — a linear scan
// over every task of a project on each request, under one global mutex,
// with leases that never expired. This package replaces that with a real
// scheduler:
//
//   - Each project owns an indexed priority queue (container/heap) ordered
//     by the project's strategy (breadth- or depth-first on answer count),
//     then priority (higher first), then task id (lower first) — the same
//     deterministic tie-break the engine always had, but Acquire is now
//     O(log n) instead of O(n).
//   - Projects are striped across shards by hashing the project id, so
//     concurrent workers on different projects never contend on the same
//     mutex.
//   - Assignments are leases with a TTL drawn from the injected
//     vclock.Clock. A worker holding a live lease can reconnect and get
//     the same task back; leases past their deadline are reclaimed lazily
//     so the slot becomes assignable again. Outstanding live leases count
//     toward a task's redundancy, so a task is never handed to more
//     workers than it still needs answers from.
//   - When a task reaches its redundancy it is retired: removed from the
//     heap and all its per-worker state (answered set, leases) is freed,
//     so scheduler memory tracks the open task set, not history.
//
// The scheduler deliberately knows nothing about the platform's data
// model — it deals in project ids, task ids, priorities and worker ids —
// so it can be tested and benchmarked in isolation and reused by other
// front ends.
//
// Concurrency model: a Scheduler is safe for concurrent use; each
// project lives on exactly one shard (chosen by the same Fibonacci hash
// platform.ShardKey exposes, which repl.Ring also partitions by), each
// shard has its own mutex, and no operation takes more than one shard
// lock — so throughput scales with distinct projects and two workers on
// different projects never contend.
package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// Strategy selects how a project's queue orders candidate tasks.
type Strategy uint8

const (
	// BreadthFirst hands out the task with the fewest answers so far.
	BreadthFirst Strategy = iota
	// DepthFirst hands out the task closest to completion.
	DepthFirst
)

// Defaults used when Options fields are zero.
const (
	DefaultShards   = 16
	DefaultLeaseTTL = 10 * time.Minute
)

// Errors returned by the scheduler.
var (
	ErrUnknownProject = errors.New("sched: unknown project")
	ErrUnknownTask    = errors.New("sched: unknown or retired task")
	ErrNoTask         = errors.New("sched: no assignable task for this worker")
	ErrDuplicate      = errors.New("sched: worker already answered this task")
	// ErrNoTaskLeft is the ErrNoTask that waiting cannot cure: every
	// open task was already answered by the worker (or none is open), so
	// no lease expiry or completion makes one assignable to it — only a
	// newly published task would. errors.Is(ErrNoTaskLeft, ErrNoTask)
	// holds.
	ErrNoTaskLeft = fmt.Errorf("%w: none left to answer", ErrNoTask)
)

// Options configure New. The zero value is usable.
type Options struct {
	// Shards is the number of lock stripes projects are hashed across.
	// Defaults to DefaultShards.
	Shards int
	// LeaseTTL is how long an assignment stays live before it is
	// reclaimed. Defaults to DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Metrics, when non-nil, registers the scheduler's families (acquire
	// latency, lease reclaim counters). Nil disables instrumentation at
	// zero hot-path cost.
	Metrics *obs.Registry
}

// schedMetrics are the scheduler's instrumentation handles; all nil when
// metrics are off.
type schedMetrics struct {
	acquire    *obs.Histogram // Acquire wall time (assignment path)
	reclaimed  *obs.Counter   // expired leases reclaimed
	reclaimLag *obs.Histogram // deadline → reclaim delay, scheduler-clock relative
}

func newSchedMetrics(reg *obs.Registry) *schedMetrics {
	m := &schedMetrics{}
	if reg == nil {
		return m
	}
	m.acquire = reg.SampledHistogram("reprowd_sched_acquire_seconds",
		"Wall time of one task acquisition (heap scan + lease bookkeeping); 1-in-8 sampled.", nil, 8)
	m.reclaimed = reg.Counter("reprowd_sched_reclaimed_leases_total",
		"Expired leases reclaimed lazily by the scheduler.")
	m.reclaimLag = reg.Histogram("reprowd_sched_reclaim_lag_seconds",
		"How long past its deadline a lease sat before reclaim (scheduler clock).", nil)
	return m
}

// lease is one outstanding assignment.
type lease struct {
	at       time.Time // when the task was assigned (run.Assigned)
	deadline time.Time // when the lease may be reclaimed
}

// entry is one schedulable task inside a project queue.
type entry struct {
	id         int64
	priority   float64
	answers    int
	redundancy int
	index      int // position in the heap, maintained by taskHeap

	answered map[string]struct{} // workers who submitted an answer
	leases   map[string]lease    // worker → outstanding assignment
}

// taskHeap orders entries per the owning queue's strategy.
type taskHeap struct {
	entries  []*entry
	strategy Strategy
}

func (h *taskHeap) Len() int { return len(h.entries) }

func (h *taskHeap) Less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.answers != b.answers {
		if h.strategy == DepthFirst {
			return a.answers > b.answers
		}
		return a.answers < b.answers
	}
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.id < b.id
}

func (h *taskHeap) Swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.entries[i].index = i
	h.entries[j].index = j
}

func (h *taskHeap) Push(x any) {
	e := x.(*entry)
	e.index = len(h.entries)
	h.entries = append(h.entries, e)
}

func (h *taskHeap) Pop() any {
	old := h.entries
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	h.entries = old[:n-1]
	e.index = -1
	return e
}

// queue is one project's scheduling state.
type queue struct {
	heap taskHeap
	byID map[int64]*entry
	// leased indexes each worker's outstanding lease (at most one per
	// project): a reconnecting worker is handed its leased task back
	// instead of accumulating leases across tasks.
	leased map[string]*entry
	m      *schedMetrics // owning scheduler's handles (never nil)
}

// reap reclaims e's expired leases, dropping their index entries too.
func (q *queue) reap(e *entry, now time.Time) {
	for w, l := range e.leases {
		if !l.deadline.After(now) {
			delete(e.leases, w)
			if q.leased[w] == e {
				delete(q.leased, w)
			}
			q.m.reclaimed.Inc()
			q.m.reclaimLag.Observe(now.Sub(l.deadline).Seconds())
		}
	}
}

// dropLease removes worker's lease on e, if any, with its index entry.
func (q *queue) dropLease(e *entry, workerID string) {
	delete(e.leases, workerID)
	if q.leased[workerID] == e {
		delete(q.leased, workerID)
	}
}

// shard is one lock stripe of the scheduler.
type shard struct {
	mu       sync.Mutex
	projects map[int64]*queue
}

// Scheduler assigns tasks to workers. It is safe for concurrent use.
type Scheduler struct {
	clock    vclock.Clock
	leaseTTL time.Duration
	shards   []*shard
	m        *schedMetrics
}

// New returns an empty scheduler. A nil clock defaults to a virtual clock.
func New(clock vclock.Clock, opts Options) *Scheduler {
	if clock == nil {
		clock = vclock.NewVirtual()
	}
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	s := &Scheduler{
		clock:    clock,
		leaseTTL: opts.LeaseTTL,
		shards:   make([]*shard, opts.Shards),
		m:        newSchedMetrics(opts.Metrics),
	}
	for i := range s.shards {
		s.shards[i] = &shard{projects: make(map[int64]*queue)}
	}
	return s
}

// LeaseTTL returns the configured lease lifetime.
func (s *Scheduler) LeaseTTL() time.Duration { return s.leaseTTL }

// shardFor hashes a project id onto its lock stripe
// (Fibonacci/multiplicative hashing; ids are small and sequential, which
// a plain modulo would stripe fine too, but this stays uniform for any
// id scheme).
func (s *Scheduler) shardFor(projectID int64) *shard {
	h := uint64(projectID) * 0x9E3779B97F4A7C15
	return s.shards[h%uint64(len(s.shards))]
}

// AddProject registers a project queue. Re-adding an existing project is a
// no-op that keeps the original strategy.
func (s *Scheduler) AddProject(projectID int64, strategy Strategy) {
	sh := s.shardFor(projectID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.projects[projectID]; ok {
		return
	}
	sh.projects[projectID] = &queue{
		heap:   taskHeap{strategy: strategy},
		byID:   make(map[int64]*entry),
		leased: make(map[string]*entry),
		m:      s.m,
	}
}

// AddTask makes a task schedulable. Redundancy must be ≥ 1. Re-adding a
// task id already in the queue is a no-op.
func (s *Scheduler) AddTask(projectID, taskID int64, priority float64, redundancy int) error {
	if redundancy < 1 {
		redundancy = 1
	}
	sh := s.shardFor(projectID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q, ok := sh.projects[projectID]
	if !ok {
		return ErrUnknownProject
	}
	if _, dup := q.byID[taskID]; dup {
		return nil
	}
	e := &entry{id: taskID, priority: priority, redundancy: redundancy}
	q.byID[taskID] = e
	heap.Push(&q.heap, e)
	return nil
}

// Acquire assigns the best eligible task to worker and records a lease on
// it. A worker already holding a live lease in the project is handed that
// task back with the lease renewed (reconnect semantics; a worker holds
// at most one lease per project). Otherwise a task is eligible when the
// worker has not answered it and it still has a free slot (answers + live
// leases < redundancy). Returns the task id and the assignment time
// stamped on the lease. When nothing is eligible it returns ErrNoTask if
// some task the worker has not answered is blocked only by other workers'
// leases (it may free up when one expires or is released), and
// ErrNoTaskLeft otherwise.
//
// The clock is consulted lazily — a request that never touches a leased
// task (the common case in a drain loop, where leases are cleared on
// submit) does not tick a virtual clock on failure, keeping timestamp
// sequences identical to the pre-sched engine.
func (s *Scheduler) Acquire(projectID int64, workerID string) (int64, time.Time, error) {
	start := s.m.acquire.Start()
	defer s.m.acquire.Stop(start)
	sh := s.shardFor(projectID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q, ok := sh.projects[projectID]
	if !ok {
		return 0, time.Time{}, ErrUnknownProject
	}

	var (
		now     time.Time
		haveNow bool
	)
	clockNow := func() time.Time {
		if !haveNow {
			now = s.clock.Now()
			haveNow = true
		}
		return now
	}

	// Reconnect: hand the worker its outstanding lease back, renewed,
	// keeping the original assignment time. An expired lease is
	// reclaimed here and the worker falls through to a fresh scan.
	if ent, ok := q.leased[workerID]; ok {
		if l, held := ent.leases[workerID]; held && l.deadline.After(clockNow()) {
			ent.leases[workerID] = lease{at: l.at, deadline: clockNow().Add(s.leaseTTL)}
			return ent.id, l.at, nil
		}
		if l, held := ent.leases[workerID]; held {
			s.m.reclaimed.Inc()
			s.m.reclaimLag.Observe(clockNow().Sub(l.deadline).Seconds())
		}
		q.dropLease(ent, workerID)
	}

	// Pop until the root is eligible for this worker, then restore the
	// skipped prefix. Skips are tasks this worker answered or tasks with
	// all slots leased out, so the loop is short in practice; the common
	// case returns the root in O(log n).
	var skipped []*entry
	var found *entry
	leaseBlocked := false
	for q.heap.Len() > 0 {
		e := q.heap.entries[0]
		if eligibleLocked(q, e, workerID, clockNow) {
			found = e
			break
		}
		if _, done := e.answered[workerID]; !done {
			leaseBlocked = true
		}
		skipped = append(skipped, heap.Pop(&q.heap).(*entry))
	}
	for _, e := range skipped {
		heap.Push(&q.heap, e)
	}
	if found == nil {
		if leaseBlocked {
			return 0, time.Time{}, ErrNoTask
		}
		return 0, time.Time{}, ErrNoTaskLeft
	}
	at := clockNow()
	if found.leases == nil {
		found.leases = make(map[string]lease)
	}
	found.leases[workerID] = lease{at: at, deadline: at.Add(s.leaseTTL)}
	q.leased[workerID] = found
	return found.id, at, nil
}

// eligibleLocked reports whether e can be assigned to worker, reclaiming
// any expired leases it holds along the way. The worker is known to hold
// no lease in the project (Acquire's reconnect path handled that).
// Callers hold the shard lock.
func eligibleLocked(q *queue, e *entry, workerID string, clockNow func() time.Time) bool {
	if _, done := e.answered[workerID]; done {
		return false
	}
	if len(e.leases) == 0 {
		return true
	}
	q.reap(e, clockNow())
	return e.answers+len(e.leases) < e.redundancy
}

// CompleteResult describes the effect of a Complete call.
type CompleteResult struct {
	// Answers is the task's answer count after this completion.
	Answers int
	// Retired reports whether the task reached its redundancy and was
	// removed from the queue.
	Retired bool
	// AssignedAt is when the completing worker was assigned the task: the
	// lease timestamp if the worker held one, else the completion time.
	AssignedAt time.Time
}

// Preview reports what Complete would return for (task, worker) without
// mutating anything — same validation, same result. Callers that journal
// outcomes before committing them (platform.Engine.Submit) use it to
// write the log entry first; the preview stays accurate as long as no
// other Complete for the task intervenes (the engine serializes
// completions under its registry lock).
func (s *Scheduler) Preview(projectID, taskID int64, workerID string, now func() time.Time) (CompleteResult, error) {
	sh := s.shardFor(projectID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q, ok := sh.projects[projectID]
	if !ok {
		return CompleteResult{}, ErrUnknownProject
	}
	e, ok := q.byID[taskID]
	if !ok {
		return CompleteResult{}, ErrUnknownTask
	}
	if _, done := e.answered[workerID]; done {
		return CompleteResult{}, ErrDuplicate
	}
	res := CompleteResult{AssignedAt: now()}
	if l, held := e.leases[workerID]; held {
		res.AssignedAt = l.at
	}
	res.Answers = e.answers + 1
	res.Retired = res.Answers >= e.redundancy
	return res, nil
}

// Complete records worker's answer on a task: the worker's lease (if any)
// is consumed, the answer count rises, the task's queue position is fixed
// up, and a task that reached its redundancy is retired with all its
// per-worker state freed. The completion time is taken from now(), which
// is only invoked after validation passes so failed completions never
// tick a virtual clock; callers typically pass a memoized clock closure
// and reuse the same timestamp for their own records.
func (s *Scheduler) Complete(projectID, taskID int64, workerID string, now func() time.Time) (CompleteResult, error) {
	sh := s.shardFor(projectID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q, ok := sh.projects[projectID]
	if !ok {
		return CompleteResult{}, ErrUnknownProject
	}
	e, ok := q.byID[taskID]
	if !ok {
		return CompleteResult{}, ErrUnknownTask
	}
	if _, done := e.answered[workerID]; done {
		return CompleteResult{}, ErrDuplicate
	}

	t := now()
	res := CompleteResult{AssignedAt: t}
	if l, held := e.leases[workerID]; held {
		// Even a lease past its deadline wins if it has not been
		// reclaimed yet: the worker did start the task at l.at.
		res.AssignedAt = l.at
		q.dropLease(e, workerID)
	}
	e.answers++
	res.Answers = e.answers
	if e.answers >= e.redundancy {
		heap.Remove(&q.heap, e.index)
		delete(q.byID, taskID)
		// Drop per-worker state with the entry so retired tasks cost the
		// scheduler nothing (the seed engine leaked leases here).
		for w := range e.leases {
			if q.leased[w] == e {
				delete(q.leased, w)
			}
		}
		e.answered = nil
		e.leases = nil
		res.Retired = true
		return res, nil
	}
	if e.answered == nil {
		e.answered = make(map[string]struct{})
	}
	e.answered[workerID] = struct{}{}
	heap.Fix(&q.heap, e.index)
	return res, nil
}

// Release drops worker's lease on a task without recording an answer —
// an explicit abandon, the eager version of TTL reclaim. Unknown
// projects, retired tasks and absent leases are no-ops.
func (s *Scheduler) Release(projectID, taskID int64, workerID string) {
	sh := s.shardFor(projectID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q, ok := sh.projects[projectID]
	if !ok {
		return
	}
	if e, ok := q.byID[taskID]; ok {
		q.dropLease(e, workerID)
	}
}

// QueueStats is a point-in-time summary of one project's queue.
type QueueStats struct {
	// PendingTasks is the number of unretired tasks in the queue.
	PendingTasks int `json:"pending_tasks"`
	// ActiveLeases counts outstanding leases across pending tasks
	// (including any not yet reclaimed past their deadline).
	ActiveLeases int `json:"active_leases"`
	// AnsweredEntries counts (task, worker) answer marks still held for
	// pending tasks. Retired tasks contribute nothing.
	AnsweredEntries int `json:"answered_entries"`
}

// Stats summarizes a project's queue.
func (s *Scheduler) Stats(projectID int64) (QueueStats, error) {
	sh := s.shardFor(projectID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q, ok := sh.projects[projectID]
	if !ok {
		return QueueStats{}, ErrUnknownProject
	}
	st := QueueStats{PendingTasks: len(q.byID)}
	for _, e := range q.byID {
		st.ActiveLeases += len(e.leases)
		st.AnsweredEntries += len(e.answered)
	}
	return st, nil
}
