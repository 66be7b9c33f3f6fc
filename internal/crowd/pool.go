package crowd

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/platform"
	"repro/internal/vclock"
)

// Worker is one simulated crowd member.
type Worker struct {
	ID      string
	Model   AnswerModel
	Latency LatencyModel
	// MaxTasks caps how many answers this worker gives per Drain before
	// leaving (0 = unlimited). Real crowd workers do a handful of tasks
	// and move on; this models that churn.
	MaxTasks int
	// Dropout is the probability (per assignment, drawn from the
	// worker's seeded rng) that the worker requests a task and then
	// leaves the drain without submitting — the churn case PyBossa-style
	// platforms see constantly. The abandoned lease stays outstanding
	// until the scheduler's TTL reclaims it, so a pool with dropout
	// exercises TTL reclaim under load (remaining workers wait out the
	// expiry; see Drain).
	Dropout float64
	// ReturnDelay turns dropout's abandon-and-leave into
	// abandon-and-return: a worker who drops an assignment comes back
	// after this much simulated time and requests again. A return within
	// the scheduler's lease TTL reconnects to the same abandoned task
	// (the lease is still the worker's), exercising the reconnect path
	// under churn; a longer delay finds the lease reclaimed and competes
	// for whatever is open. Zero keeps abandon-and-leave.
	ReturnDelay time.Duration
	rng         *rand.Rand
}

// Spec describes a homogeneous group of workers to add to a pool.
type Spec struct {
	// Count is how many workers with this profile to create.
	Count int
	// Model is their accuracy model.
	Model AnswerModel
	// Latency is their per-task latency model; nil means a fixed 30s.
	Latency LatencyModel
	// Prefix names the workers ("judge" → judge-0, judge-1, ...).
	// Defaults to the model name.
	Prefix string
	// MaxTasks caps answers per worker per Drain (0 = unlimited).
	MaxTasks int
	// Dropout is each worker's probability of abandoning an assignment
	// (request, never submit); see Worker.Dropout.
	Dropout float64
	// ReturnDelay makes dropout workers return and request again after
	// this much simulated time; see Worker.ReturnDelay.
	ReturnDelay time.Duration
}

// Pool is a set of simulated workers that can drain platform projects.
// Construction from a single seed makes every drain reproducible.
type Pool struct {
	Workers []*Worker
	clock   vclock.Clock
}

// NewPool builds a pool from specs. All randomness derives from seed; the
// clock (nil → shared virtual clock) supplies simulated timestamps.
func NewPool(seed int64, clock vclock.Clock, specs ...Spec) *Pool {
	if clock == nil {
		clock = vclock.NewVirtual()
	}
	master := rand.New(rand.NewSource(seed))
	p := &Pool{clock: clock}
	for _, s := range specs {
		prefix := s.Prefix
		if prefix == "" {
			prefix = s.Model.Name()
		}
		lat := s.Latency
		if lat == nil {
			lat = FixedLatency{D: 30 * time.Second}
		}
		for i := 0; i < s.Count; i++ {
			p.Workers = append(p.Workers, &Worker{
				ID:          fmt.Sprintf("%s-%d", prefix, i),
				Model:       s.Model,
				Latency:     lat,
				MaxTasks:    s.MaxTasks,
				Dropout:     s.Dropout,
				ReturnDelay: s.ReturnDelay,
				rng:         rand.New(rand.NewSource(master.Int63())),
			})
		}
	}
	return p
}

// Clock returns the clock driving the pool's simulated time.
func (p *Pool) Clock() vclock.Clock { return p.clock }

// DrainStats summarizes one Drain call.
type DrainStats struct {
	// Answers is the number of task runs submitted.
	Answers int
	// PerWorker counts answers by worker id.
	PerWorker map[string]int
	// Dropouts counts assignments abandoned by dropout workers (the
	// lease was taken and never submitted against).
	Dropouts int
	// Returns counts re-entries: a dropout worker with a ReturnDelay
	// coming back and requesting again after abandoning an assignment.
	Returns int
	// SimulatedWall is the simulated time from first assignment to last
	// submission.
	SimulatedWall time.Duration
}

// workerEvent orders workers by when they next become free.
type workerEvent struct {
	at  time.Time
	idx int // index into Pool.Workers, breaks ties deterministically
}

type eventHeap []workerEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].idx < h[j].idx
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(workerEvent)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Patience of workers waiting out other workers' abandoned leases: a
// worker told plain platform.ErrNoTask (every task it could answer is
// leased to someone else) retries every noTaskRetry of simulated time, up
// to maxIdleRetries consecutive failures, so that leases expiring under
// the scheduler's TTL are reclaimed instead of stranding tasks. A worker
// told platform.ErrNoTaskLeft has nothing left to answer and leaves at
// once. Without dropout no lease outlives the event that took it, so a
// no-dropout pool draining a project alone only ever sees ErrNoTaskLeft
// and its workers leave on their first miss.
const (
	noTaskRetry    = 30 * time.Second
	maxIdleRetries = 240 // 2 simulated hours of patience
)

// Drain runs the pool against a project until no worker can get another
// task: every task either reached its redundancy or has been answered by
// every worker. The simulation is event-driven — the worker who becomes
// free earliest (ties by index) acts next — so a given (pool, project)
// pair always drains identically.
func (p *Pool) Drain(client platform.Client, projectID int64, oracle Oracle) (DrainStats, error) {
	stats := DrainStats{PerWorker: make(map[string]int)}
	if len(p.Workers) == 0 {
		return stats, nil
	}
	virt, _ := p.clock.(*vclock.Virtual)
	idle := make([]int, len(p.Workers))    // consecutive fruitless requests
	returns := make([]int, len(p.Workers)) // abandon-and-return re-entries

	start := p.clock.Now()
	var h eventHeap
	for i := range p.Workers {
		heap.Push(&h, workerEvent{at: start, idx: i})
	}
	var last time.Time
	for h.Len() > 0 {
		ev := heap.Pop(&h).(workerEvent)
		w := p.Workers[ev.idx]
		if w.MaxTasks > 0 && stats.PerWorker[w.ID] >= w.MaxTasks {
			continue // quota reached: the worker leaves
		}
		if virt != nil {
			virt.AdvanceTo(ev.at)
		}
		task, err := client.RequestTask(projectID, w.ID)
		if errors.Is(err, platform.ErrNoTaskLeft) {
			continue // answered everything still open: the worker leaves
		}
		if errors.Is(err, platform.ErrNoTask) {
			// Leases block every task this worker could answer: wait for
			// them to expire and be reclaimed.
			if idle[ev.idx] < maxIdleRetries {
				idle[ev.idx]++
				heap.Push(&h, workerEvent{at: ev.at.Add(noTaskRetry), idx: ev.idx})
			}
			continue
		}
		if errors.Is(err, platform.ErrWorkerBanned) {
			continue // banned; do not requeue
		}
		if err != nil {
			return stats, fmt.Errorf("crowd: worker %s request: %w", w.ID, err)
		}
		idle[ev.idx] = 0
		if w.Dropout > 0 && w.rng.Float64() < w.Dropout {
			// The worker abandons the assignment; its lease stays
			// outstanding until the scheduler reclaims it. With a
			// ReturnDelay the worker comes back and requests again —
			// reconnecting to the same task while the lease lives —
			// otherwise it walks away for good. Re-entries are capped so
			// a worker who always abandons (Dropout 1) still terminates.
			stats.Dropouts++
			if w.ReturnDelay > 0 && returns[ev.idx] < maxIdleRetries {
				returns[ev.idx]++
				stats.Returns++
				heap.Push(&h, workerEvent{at: ev.at.Add(w.ReturnDelay), idx: ev.idx})
			}
			continue
		}
		think := w.Latency.Draw(w.rng)
		if think < 0 {
			think = 0
		}
		doneAt := ev.at.Add(think)
		if virt != nil {
			virt.AdvanceTo(doneAt)
		} else {
			p.clock.Sleep(0) // wall clock: no artificial delay
		}
		answer := w.Model.Answer(w.rng, oracle.Truth(task.Payload), oracle.Options(task.Payload))
		run, err := client.Submit(task.ID, w.ID, answer)
		if err != nil && !errors.Is(err, platform.ErrTaskCompleted) && !errors.Is(err, platform.ErrDuplicateAnswer) {
			return stats, fmt.Errorf("crowd: worker %s submit: %w", w.ID, err)
		}
		if err == nil {
			stats.Answers++
			stats.PerWorker[w.ID]++
			if run.Finished.After(last) {
				last = run.Finished
			}
		}
		heap.Push(&h, workerEvent{at: doneAt, idx: ev.idx})
	}
	if !last.IsZero() {
		stats.SimulatedWall = last.Sub(start)
	}
	return stats, nil
}
