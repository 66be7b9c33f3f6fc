package sched

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/vclock"
)

func mustAcquire(t *testing.T, s *Scheduler, project int64, worker string) int64 {
	t.Helper()
	id, _, err := s.Acquire(project, worker)
	if err != nil {
		t.Fatalf("Acquire(%d, %s): %v", project, worker, err)
	}
	return id
}

func mustComplete(t *testing.T, s *Scheduler, project, task int64, worker string, clock vclock.Clock) CompleteResult {
	t.Helper()
	res, err := s.Complete(project, task, worker, clock.Now)
	if err != nil {
		t.Fatalf("Complete(%d, %d, %s): %v", project, task, worker, err)
	}
	return res
}

func TestUnknownProject(t *testing.T) {
	s := New(nil, Options{})
	if _, _, err := s.Acquire(7, "w"); !errors.Is(err, ErrUnknownProject) {
		t.Fatalf("Acquire: got %v, want ErrUnknownProject", err)
	}
	if err := s.AddTask(7, 1, 0, 1); !errors.Is(err, ErrUnknownProject) {
		t.Fatalf("AddTask: got %v, want ErrUnknownProject", err)
	}
	if _, err := s.Stats(7); !errors.Is(err, ErrUnknownProject) {
		t.Fatalf("Stats: got %v, want ErrUnknownProject", err)
	}
}

func TestBreadthFirstOrder(t *testing.T) {
	clock := vclock.NewVirtual()
	s := New(clock, Options{})
	s.AddProject(1, BreadthFirst)
	for i := int64(1); i <= 3; i++ {
		s.AddTask(1, i, 0, 2)
	}
	// A single worker sweeping the queue sees tasks in id order: every
	// task has zero answers, so the id tie-break decides.
	for want := int64(1); want <= 3; want++ {
		got := mustAcquire(t, s, 1, "w1")
		if got != want {
			t.Fatalf("breadth pick: got task %d, want %d", got, want)
		}
		mustComplete(t, s, 1, got, "w1", clock)
	}
	// All three now have one answer; a second worker sweeps the same order.
	for want := int64(1); want <= 3; want++ {
		got := mustAcquire(t, s, 1, "w2")
		if got != want {
			t.Fatalf("breadth second pass: got task %d, want %d", got, want)
		}
		res := mustComplete(t, s, 1, got, "w2", clock)
		if !res.Retired {
			t.Fatalf("task %d should retire at redundancy 2", got)
		}
	}
	// An empty heap is final: nothing will ever be assignable, and
	// classifiers that only know ErrNoTask still see one.
	if _, _, err := s.Acquire(1, "w3"); !errors.Is(err, ErrNoTaskLeft) || !errors.Is(err, ErrNoTask) {
		t.Fatalf("drained queue: got %v, want ErrNoTaskLeft (an ErrNoTask)", err)
	}
}

func TestDepthFirstOrder(t *testing.T) {
	clock := vclock.NewVirtual()
	s := New(clock, Options{})
	s.AddProject(1, DepthFirst)
	s.AddTask(1, 1, 0, 3)
	s.AddTask(1, 2, 0, 3)
	// w1 answers task 1 once; depth-first steers w2 there too.
	id := mustAcquire(t, s, 1, "w1")
	mustComplete(t, s, 1, id, "w1", clock)
	if got := mustAcquire(t, s, 1, "w2"); got != 1 {
		t.Fatalf("depth pick: got task %d, want 1", got)
	}
}

func TestPriorityThenID(t *testing.T) {
	s := New(nil, Options{})
	s.AddProject(1, BreadthFirst)
	s.AddTask(1, 1, 0, 1)
	s.AddTask(1, 2, 10, 1)
	s.AddTask(1, 3, 10, 1)
	if got := mustAcquire(t, s, 1, "w"); got != 2 {
		t.Fatalf("priority pick: got task %d, want 2 (priority 10, lowest id)", got)
	}
}

func TestDuplicateAndRetired(t *testing.T) {
	clock := vclock.NewVirtual()
	s := New(clock, Options{})
	s.AddProject(1, BreadthFirst)
	s.AddTask(1, 1, 0, 2)

	mustComplete(t, s, 1, 1, "w1", clock)
	if _, err := s.Complete(1, 1, "w1", clock.Now); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: got %v, want ErrDuplicate", err)
	}
	// w1 answered the only open task: nothing is left for it, however
	// long it waits.
	if _, _, err := s.Acquire(1, "w1"); !errors.Is(err, ErrNoTaskLeft) {
		t.Fatalf("answered task re-acquired: got %v, want ErrNoTaskLeft", err)
	}
	res := mustComplete(t, s, 1, 1, "w2", clock)
	if !res.Retired || res.Answers != 2 {
		t.Fatalf("retire: got %+v", res)
	}
	if _, err := s.Complete(1, 1, "w3", clock.Now); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("retired task: got %v, want ErrUnknownTask", err)
	}
}

// TestRetireFreesPerWorkerState is the regression test for the seed
// engine's unbounded lease growth: after a task retires, the scheduler
// holds no leases or answered marks for it.
func TestRetireFreesPerWorkerState(t *testing.T) {
	clock := vclock.NewVirtual()
	s := New(clock, Options{})
	s.AddProject(1, BreadthFirst)
	s.AddTask(1, 1, 0, 2)

	id := mustAcquire(t, s, 1, "w1")
	mustComplete(t, s, 1, id, "w1", clock)
	mustAcquire(t, s, 1, "w2")
	// w3 submits without ever acquiring; w2's lease is still outstanding
	// when the task retires.
	if res := mustComplete(t, s, 1, 1, "w3", clock); !res.Retired {
		t.Fatalf("want retire, got %+v", res)
	}
	st, err := s.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	if st != (QueueStats{}) {
		t.Fatalf("retired task left scheduler state behind: %+v", st)
	}
}

func TestLeaseRenewalReturnsSameTask(t *testing.T) {
	clock := vclock.NewVirtual()
	s := New(clock, Options{LeaseTTL: time.Hour})
	s.AddProject(1, BreadthFirst)
	s.AddTask(1, 1, 0, 1)
	s.AddTask(1, 2, 0, 1)

	id, at, err := s.Acquire(1, "w1")
	if err != nil || id != 1 {
		t.Fatalf("first acquire: %d, %v", id, err)
	}
	// Reconnect before the TTL: same task, original assignment time.
	id2, at2, err := s.Acquire(1, "w1")
	if err != nil || id2 != 1 {
		t.Fatalf("renewal acquire: %d, %v", id2, err)
	}
	if !at2.Equal(at) {
		t.Fatalf("renewal changed assignment time: %v vs %v", at2, at)
	}
}

// TestLeaseReconnectNotBest: the reconnect guarantee holds even when the
// leased task is no longer heap-best — the worker gets its lease back
// instead of accumulating a second lease on the new best task.
func TestLeaseReconnectNotBest(t *testing.T) {
	clock := vclock.NewVirtual()
	s := New(clock, Options{LeaseTTL: time.Hour})
	s.AddProject(1, DepthFirst)
	s.AddTask(1, 1, 0, 3)
	s.AddTask(1, 2, 0, 3)

	if got := mustAcquire(t, s, 1, "w1"); got != 1 {
		t.Fatalf("w1 got %d, want 1", got)
	}
	// w2 answers task 2, making it depth-first-best.
	mustComplete(t, s, 1, 2, "w2", clock)
	// w1 reconnects: it must get its leased task 1, not the new best.
	if got := mustAcquire(t, s, 1, "w1"); got != 1 {
		t.Fatalf("reconnect handed out a second task: got %d, want 1", got)
	}
	st, _ := s.Stats(1)
	if st.ActiveLeases != 1 {
		t.Fatalf("worker accumulated leases: %+v", st)
	}
}

// TestLeaseAdmission: live leases count against redundancy, so a task all
// of whose slots are leased out is skipped for other workers.
func TestLeaseAdmission(t *testing.T) {
	clock := vclock.NewVirtual()
	s := New(clock, Options{LeaseTTL: time.Hour})
	s.AddProject(1, BreadthFirst)
	s.AddTask(1, 1, 0, 1)
	s.AddTask(1, 2, 0, 1)

	if got := mustAcquire(t, s, 1, "w1"); got != 1 {
		t.Fatalf("w1 got %d, want 1", got)
	}
	// Task 1's only slot is leased to w1 → w2 is steered to task 2.
	if got := mustAcquire(t, s, 1, "w2"); got != 2 {
		t.Fatalf("w2 got %d, want 2 (task 1 fully leased)", got)
	}
	// All slots leased → nothing for w3 yet, but a lease may free up.
	if _, _, err := s.Acquire(1, "w3"); !errors.Is(err, ErrNoTask) || errors.Is(err, ErrNoTaskLeft) {
		t.Fatalf("w3: got %v, want ErrNoTask (lease-blocked, not ErrNoTaskLeft)", err)
	}
}

// TestLeaseExpiryReclaim: once a lease passes its TTL the slot is
// reclaimed and the task becomes assignable again.
func TestLeaseExpiryReclaim(t *testing.T) {
	clock := vclock.NewVirtual()
	s := New(clock, Options{LeaseTTL: time.Minute})
	s.AddProject(1, BreadthFirst)
	s.AddTask(1, 1, 0, 1)

	mustAcquire(t, s, 1, "w1")
	if _, _, err := s.Acquire(1, "w2"); !errors.Is(err, ErrNoTask) || errors.Is(err, ErrNoTaskLeft) {
		t.Fatalf("pre-expiry: got %v, want ErrNoTask (lease-blocked, not ErrNoTaskLeft)", err)
	}
	clock.Sleep(2 * time.Minute) // w1 walked away; the lease expires
	if got := mustAcquire(t, s, 1, "w2"); got != 1 {
		t.Fatalf("post-expiry: w2 got %d, want reclaimed task 1", got)
	}
	st, _ := s.Stats(1)
	if st.ActiveLeases != 1 {
		t.Fatalf("expired lease not reclaimed: %+v", st)
	}
	// w1's lease is gone, but w1 never answered — it may reacquire once
	// w2's lease expires, and its new lease gets a fresh assignment time.
	clock.Sleep(2 * time.Minute)
	if got := mustAcquire(t, s, 1, "w1"); got != 1 {
		t.Fatalf("w1 reacquire: got %d, want 1", got)
	}
}

// TestExpiredLeaseStillDatesCompletion: a worker submitting past its TTL
// (lease not yet reclaimed by anyone) still gets the original assignment
// time on its answer.
func TestExpiredLeaseStillDatesCompletion(t *testing.T) {
	clock := vclock.NewVirtual()
	s := New(clock, Options{LeaseTTL: time.Second})
	s.AddProject(1, BreadthFirst)
	s.AddTask(1, 1, 0, 1)
	_, at, _ := s.Acquire(1, "w1")
	clock.Sleep(time.Hour)
	res := mustComplete(t, s, 1, 1, "w1", clock)
	if !res.AssignedAt.Equal(at) {
		t.Fatalf("assignment time lost: got %v, want %v", res.AssignedAt, at)
	}
}

func TestCompleteWithoutLease(t *testing.T) {
	clock := vclock.NewVirtual()
	s := New(clock, Options{})
	s.AddProject(1, BreadthFirst)
	s.AddTask(1, 1, 0, 2)
	before := clock.Peek()
	res := mustComplete(t, s, 1, 1, "w1", clock)
	if !res.AssignedAt.After(before) {
		t.Fatalf("leaseless completion should date assignment at completion time: %+v", res)
	}
}

func TestRelease(t *testing.T) {
	clock := vclock.NewVirtual()
	s := New(clock, Options{LeaseTTL: time.Hour})
	s.AddProject(1, BreadthFirst)
	s.AddTask(1, 1, 0, 1)
	mustAcquire(t, s, 1, "w1")
	if _, _, err := s.Acquire(1, "w2"); !errors.Is(err, ErrNoTask) {
		t.Fatalf("leased: got %v", err)
	}
	s.Release(1, 1, "w1")
	if got := mustAcquire(t, s, 1, "w2"); got != 1 {
		t.Fatalf("released task not reassignable: got %d", got)
	}
	// No-op releases must not panic.
	s.Release(1, 99, "w1")
	s.Release(42, 1, "w1")
}

func TestAddTaskIdempotent(t *testing.T) {
	s := New(nil, Options{})
	s.AddProject(1, BreadthFirst)
	if err := s.AddTask(1, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTask(1, 1, 5, 3); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Stats(1)
	if st.PendingTasks != 1 {
		t.Fatalf("duplicate AddTask created a second entry: %+v", st)
	}
}

func TestAddProjectKeepsStrategy(t *testing.T) {
	clock := vclock.NewVirtual()
	s := New(clock, Options{})
	s.AddProject(1, DepthFirst)
	s.AddProject(1, BreadthFirst) // ignored
	s.AddTask(1, 1, 0, 3)
	s.AddTask(1, 2, 0, 3)
	id := mustAcquire(t, s, 1, "w1")
	mustComplete(t, s, 1, id, "w1", clock)
	if got := mustAcquire(t, s, 1, "w2"); got != 1 {
		t.Fatalf("strategy was overwritten: w2 got %d, want 1 (depth-first)", got)
	}
}

// TestDeterministicAcrossShardCounts: shard striping is a locking detail
// and must not influence assignment order.
func TestDeterministicAcrossShardCounts(t *testing.T) {
	trace := func(shards int) string {
		clock := vclock.NewVirtual()
		s := New(clock, Options{Shards: shards})
		out := ""
		for p := int64(1); p <= 5; p++ {
			s.AddProject(p, BreadthFirst)
			for tsk := int64(0); tsk < 4; tsk++ {
				s.AddTask(p, p*100+tsk, float64(tsk%2), 2)
			}
		}
		for round := 0; round < 8; round++ {
			for p := int64(1); p <= 5; p++ {
				for _, w := range []string{"a", "b"} {
					id, _, err := s.Acquire(p, w)
					if err != nil {
						continue
					}
					res, err := s.Complete(p, id, w, clock.Now)
					if err != nil {
						continue
					}
					out += fmt.Sprintf("%d:%s->%d(%d);", p, w, id, res.Answers)
				}
			}
		}
		return out
	}
	a, b, c := trace(1), trace(16), trace(64)
	if a != b || b != c {
		t.Fatalf("shard count changed scheduling:\n1:  %s\n16: %s\n64: %s", a, b, c)
	}
}
