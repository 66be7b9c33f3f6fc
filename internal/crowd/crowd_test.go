package crowd

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/platform"
	"repro/internal/vclock"
)

// labelOracle answers from a payload key; options are fixed.
var labelOracle = FuncOracle{
	TruthFunc:   func(p map[string]string) string { return p["truth"] },
	OptionsFunc: func(map[string]string) []string { return []string{"yes", "no"} },
}

func TestPerfectAndAdversary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	opts := []string{"yes", "no", "maybe"}
	if got := (Perfect{}).Answer(rng, "yes", opts); got != "yes" {
		t.Fatalf("Perfect answered %q", got)
	}
	if got := (Adversary{}).Answer(rng, "yes", opts); got == "yes" {
		t.Fatalf("Adversary answered correctly")
	}
}

func TestUniformAccuracyConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := Uniform{P: 0.8}
	correct := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.Answer(rng, "yes", []string{"yes", "no"}) == "yes" {
			correct++
		}
	}
	acc := float64(correct) / n
	if acc < 0.78 || acc > 0.82 {
		t.Fatalf("Uniform(0.8) empirical accuracy = %.3f", acc)
	}
}

func TestUniformSingleOptionAlwaysTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := Uniform{P: 0}
	if got := m.Answer(rng, "only", []string{"only"}); got != "only" {
		t.Fatalf("no wrong options available, got %q", got)
	}
}

func TestTwoCoinAsymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := TwoCoin{Positive: "yes", Negative: "no", TPR: 0.9, TNR: 0.6}
	tp, tn := 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.Answer(rng, "yes", nil) == "yes" {
			tp++
		}
		if m.Answer(rng, "no", nil) == "no" {
			tn++
		}
	}
	if got := float64(tp) / n; got < 0.88 || got > 0.92 {
		t.Fatalf("TPR = %.3f, want ≈0.9", got)
	}
	if got := float64(tn) / n; got < 0.58 || got > 0.62 {
		t.Fatalf("TNR = %.3f, want ≈0.6", got)
	}
}

func TestConfusionMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := Confusion{Rows: map[string]map[string]float64{
		"a": {"a": 0.5, "b": 0.5, "c": 0},
	}}
	opts := []string{"a", "b", "c"}
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[m.Answer(rng, "a", opts)]++
	}
	if counts["c"] != 0 {
		t.Fatalf("zero-probability option chosen %d times", counts["c"])
	}
	if f := float64(counts["a"]) / n; f < 0.47 || f > 0.53 {
		t.Fatalf("P(a|a) = %.3f, want ≈0.5", f)
	}
	// Unknown truth falls back to truth.
	if got := m.Answer(rng, "zz", opts); got != "zz" {
		t.Fatalf("missing row: got %q", got)
	}
}

func TestSpammerUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	counts := map[string]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[(Spammer{}).Answer(rng, "yes", []string{"yes", "no", "maybe"})]++
	}
	for _, o := range []string{"yes", "no", "maybe"} {
		f := float64(counts[o]) / n
		if f < 0.30 || f > 0.37 {
			t.Fatalf("spammer P(%s) = %.3f, want ≈1/3", o, f)
		}
	}
	if got := (Spammer{}).Answer(rng, "x", nil); got != "" {
		t.Fatalf("spammer with no options: %q", got)
	}
}

func TestLatencyModels(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	if d := (FixedLatency{D: time.Minute}).Draw(rng); d != time.Minute {
		t.Fatalf("fixed latency %v", d)
	}
	u := UniformLatency{Min: time.Second, Max: 10 * time.Second}
	for i := 0; i < 1000; i++ {
		d := u.Draw(rng)
		if d < time.Second || d > 10*time.Second {
			t.Fatalf("uniform latency %v out of range", d)
		}
	}
	if d := (UniformLatency{Min: 5, Max: 5}).Draw(rng); d != 5 {
		t.Fatalf("degenerate uniform latency %v", d)
	}
	e := ExpLatency{Mean: 30 * time.Second}
	var sum time.Duration
	for i := 0; i < 5000; i++ {
		sum += e.Draw(rng)
	}
	mean := sum / 5000
	if mean < 25*time.Second || mean > 35*time.Second {
		t.Fatalf("exp latency mean %v, want ≈30s", mean)
	}
}

func newProject(t *testing.T, engine *platform.Engine, redundancy, nTasks int) platform.Project {
	t.Helper()
	p, err := engine.EnsureProject(platform.ProjectSpec{Name: "test", Redundancy: redundancy})
	if err != nil {
		t.Fatal(err)
	}
	var specs []platform.TaskSpec
	for i := 0; i < nTasks; i++ {
		truth := "yes"
		if i%2 == 1 {
			truth = "no"
		}
		specs = append(specs, platform.TaskSpec{
			ExternalID: fmt.Sprintf("t%d", i),
			Payload:    map[string]string{"truth": truth},
		})
	}
	if _, err := engine.AddTasks(p.ID, specs); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDrainCompletesAllTasks(t *testing.T) {
	clock := vclock.NewVirtual()
	engine := platform.NewEngine(clock)
	p := newProject(t, engine, 3, 10)
	pool := NewPool(42, clock, Spec{Count: 5, Model: Uniform{P: 0.8}, Prefix: "w"})

	stats, err := pool.Drain(engine, p.ID, labelOracle)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Answers != 30 {
		t.Fatalf("answers = %d, want 30 (10 tasks × r=3)", stats.Answers)
	}
	st, _ := engine.Stats(p.ID)
	if st.CompletedTasks != 10 {
		t.Fatalf("completed = %d, want 10", st.CompletedTasks)
	}
	if stats.SimulatedWall <= 0 {
		t.Fatal("simulated wall time not tracked")
	}
	// Each task answered by 3 distinct workers.
	tasks, _ := engine.Tasks(p.ID)
	for _, task := range tasks {
		runs, _ := engine.Runs(task.ID)
		seen := map[string]bool{}
		for _, r := range runs {
			if seen[r.WorkerID] {
				t.Fatalf("task %d answered twice by %s", task.ID, r.WorkerID)
			}
			seen[r.WorkerID] = true
		}
		if len(seen) != 3 {
			t.Fatalf("task %d has %d distinct workers", task.ID, len(seen))
		}
	}
}

func TestDrainInsufficientWorkers(t *testing.T) {
	// Redundancy 5 but only 2 workers: every task gets exactly 2 answers
	// and Drain still terminates.
	clock := vclock.NewVirtual()
	engine := platform.NewEngine(clock)
	p := newProject(t, engine, 5, 4)
	pool := NewPool(1, clock, Spec{Count: 2, Model: Perfect{}})
	stats, err := pool.Drain(engine, p.ID, labelOracle)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Answers != 8 {
		t.Fatalf("answers = %d, want 8", stats.Answers)
	}
	st, _ := engine.Stats(p.ID)
	if st.CompletedTasks != 0 {
		t.Fatalf("completed = %d, want 0 (not enough workers)", st.CompletedTasks)
	}
}

func TestDrainDeterministic(t *testing.T) {
	run := func() string {
		clock := vclock.NewVirtual()
		engine := platform.NewEngine(clock)
		p := newProject(t, engine, 3, 8)
		pool := NewPool(99, clock,
			Spec{Count: 3, Model: Uniform{P: 0.7}, Latency: ExpLatency{Mean: time.Minute}, Prefix: "a"},
			Spec{Count: 2, Model: Spammer{}, Latency: UniformLatency{Min: time.Second, Max: time.Hour}, Prefix: "s"},
		)
		if _, err := pool.Drain(engine, p.ID, labelOracle); err != nil {
			t.Fatal(err)
		}
		out := ""
		tasks, _ := engine.Tasks(p.ID)
		for _, task := range tasks {
			runs, _ := engine.Runs(task.ID)
			for _, r := range runs {
				out += fmt.Sprintf("%d:%s=%s@%s;", task.ID, r.WorkerID, r.Answer, r.Finished)
			}
		}
		return out
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("drain not deterministic:\n%s\n%s", a, b)
	}
}

func TestDrainEmptyPool(t *testing.T) {
	clock := vclock.NewVirtual()
	engine := platform.NewEngine(clock)
	p := newProject(t, engine, 3, 2)
	pool := &Pool{clock: clock}
	stats, err := pool.Drain(engine, p.ID, labelOracle)
	if err != nil || stats.Answers != 0 {
		t.Fatalf("empty pool drain: %+v, %v", stats, err)
	}
}

func TestPoolWorkerNaming(t *testing.T) {
	pool := NewPool(5, nil,
		Spec{Count: 2, Model: Perfect{}, Prefix: "expert"},
		Spec{Count: 1, Model: Spammer{}},
	)
	if len(pool.Workers) != 3 {
		t.Fatalf("pool size %d", len(pool.Workers))
	}
	if pool.Workers[0].ID != "expert-0" || pool.Workers[1].ID != "expert-1" {
		t.Fatalf("prefix naming: %s, %s", pool.Workers[0].ID, pool.Workers[1].ID)
	}
	if pool.Workers[2].ID != "spammer-0" {
		t.Fatalf("default naming: %s", pool.Workers[2].ID)
	}
}

// TestQuickUniformNeverInventsAnswers: whatever the seed, a Uniform worker
// answers something from the option list.
func TestQuickUniformNeverInventsAnswers(t *testing.T) {
	f := func(seed int64, p float64, truthIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := []string{"a", "b", "c", "d"}
		truth := opts[int(truthIdx)%len(opts)]
		m := Uniform{P: p - float64(int(p))} // fold into [0,1)
		got := m.Answer(rng, truth, opts)
		for _, o := range opts {
			if got == o {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDrainAnswersBounded: for any redundancy r and worker count w,
// answers per task = min(r, w).
func TestQuickDrainAnswersBounded(t *testing.T) {
	f := func(rRaw, wRaw uint8) bool {
		r := int(rRaw)%5 + 1
		w := int(wRaw)%5 + 1
		clock := vclock.NewVirtual()
		engine := platform.NewEngine(clock)
		p, _ := engine.EnsureProject(platform.ProjectSpec{Name: "q", Redundancy: r})
		engine.AddTasks(p.ID, []platform.TaskSpec{
			{ExternalID: "t0", Payload: map[string]string{"truth": "yes"}},
			{ExternalID: "t1", Payload: map[string]string{"truth": "no"}},
		})
		pool := NewPool(7, clock, Spec{Count: w, Model: Perfect{}})
		stats, err := pool.Drain(engine, p.ID, labelOracle)
		if err != nil {
			return false
		}
		want := 2 * min(r, w)
		return stats.Answers == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDrainWorkerQuota(t *testing.T) {
	clock := vclock.NewVirtual()
	engine := platform.NewEngine(clock)
	p := newProject(t, engine, 1, 10)
	// 2 workers capped at 3 tasks each: only 6 of the 10 tasks get done.
	pool := NewPool(5, clock, Spec{Count: 2, Model: Perfect{}, MaxTasks: 3})
	stats, err := pool.Drain(engine, p.ID, labelOracle)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Answers != 6 {
		t.Fatalf("answers = %d, want 6 (2 workers x quota 3)", stats.Answers)
	}
	for w, n := range stats.PerWorker {
		if n > 3 {
			t.Fatalf("worker %s exceeded quota: %d", w, n)
		}
	}
	// A second drain with fresh quota finishes the remainder.
	pool2 := NewPool(6, clock, Spec{Count: 2, Model: Perfect{}, MaxTasks: 2, Prefix: "late"})
	stats2, err := pool2.Drain(engine, p.ID, labelOracle)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Answers+stats2.Answers != 10 {
		t.Fatalf("total answers = %d, want 10", stats.Answers+stats2.Answers)
	}
}

func TestDrainSkipsBannedWorkers(t *testing.T) {
	clock := vclock.NewVirtual()
	engine := platform.NewEngine(clock)
	p := newProject(t, engine, 1, 4)
	pool := NewPool(5, clock, Spec{Count: 2, Model: Perfect{}, Prefix: "w"})
	if err := engine.BanWorker(p.ID, "w-0"); err != nil {
		t.Fatal(err)
	}
	stats, err := pool.Drain(engine, p.ID, labelOracle)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PerWorker["w-0"] != 0 {
		t.Fatalf("banned worker answered %d tasks", stats.PerWorker["w-0"])
	}
	if stats.PerWorker["w-1"] != 4 {
		t.Fatalf("remaining worker answered %d tasks, want 4", stats.PerWorker["w-1"])
	}
}

// TestDrainDropoutReclaim is the lease-TTL acceptance test for the
// dropout model: workers that request tasks and vanish leave leases
// behind, and the remaining (patient) workers must wait out the TTL, get
// the reclaimed slots, and still finish every task.
func TestDrainDropoutReclaim(t *testing.T) {
	clock := vclock.NewVirtual()
	engine, err := platform.NewEngineOpts(platform.EngineOptions{
		Clock:    clock,
		LeaseTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := newProject(t, engine, 1, 6)
	// 3 certain dropouts grab leases and vanish; 2 reliable workers must
	// reclaim those slots after the one-minute TTL.
	pool := NewPool(42, clock,
		Spec{Count: 3, Model: Perfect{}, Prefix: "ghost", Dropout: 1},
		Spec{Count: 2, Model: Perfect{}, Prefix: "solid"},
	)
	stats, err := pool.Drain(engine, p.ID, labelOracle)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropouts != 3 {
		t.Fatalf("dropouts = %d, want 3 (one per ghost)", stats.Dropouts)
	}
	for w, n := range stats.PerWorker {
		if n > 0 && w[:5] == "ghost" {
			t.Fatalf("dropout worker %s submitted %d answers", w, n)
		}
	}
	if stats.Answers != 6 {
		t.Fatalf("answers = %d, want 6 (all tasks finished after reclaim)", stats.Answers)
	}
	st, _ := engine.Stats(p.ID)
	if st.CompletedTasks != 6 {
		t.Fatalf("completed = %d, want 6", st.CompletedTasks)
	}
	// Reclaim really was needed: the drain had to outlive the lease TTL.
	if stats.SimulatedWall < time.Minute {
		t.Fatalf("drain finished in %v, before any lease could expire", stats.SimulatedWall)
	}
	qs, err := engine.QueueStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if qs.PendingTasks != 0 || qs.ActiveLeases != 0 || qs.AnsweredEntries != 0 {
		t.Fatalf("drain left scheduler state behind: %+v", qs)
	}
}

// requestCounter counts RequestTask calls through a platform.Client.
type requestCounter struct {
	platform.Client
	requests int
}

func (c *requestCounter) RequestTask(projectID int64, workerID string) (platform.Task, error) {
	c.requests++
	return c.Client.RequestTask(projectID, workerID)
}

// TestDrainStopsPollingFinishedProject: workers wait out abandoned leases
// but stop asking once nothing is left for them. Every request is an
// answer, a dropout, a return, one final miss per worker, or a retry
// while some abandoned lease blocks — at most TTL/noTaskRetry+1 per
// worker per abandoned lease. Workers that kept polling a finished
// project (maxIdleRetries each) would blow the bound.
func TestDrainStopsPollingFinishedProject(t *testing.T) {
	const ttl = time.Minute
	clock := vclock.NewVirtual()
	engine, err := platform.NewEngineOpts(platform.EngineOptions{Clock: clock, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	p := newProject(t, engine, 2, 8)
	pool := NewPool(1, clock,
		Spec{Count: 2, Model: Perfect{}, Prefix: "ghost", Dropout: 1},
		Spec{Count: 2, Model: Perfect{}, Prefix: "flaky", Dropout: 0.3, ReturnDelay: 45 * time.Second},
		Spec{Count: 2, Model: Perfect{}, Prefix: "solid"},
	)
	client := &requestCounter{Client: engine}
	stats, err := pool.Drain(client, p.ID, labelOracle)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := engine.Stats(p.ID); st.CompletedTasks != 8 {
		t.Fatalf("completed = %d, want 8", st.CompletedTasks)
	}
	if stats.Returns == 0 {
		t.Fatalf("drain exercised no abandon-and-return: %+v", stats)
	}
	workers := len(pool.Workers)
	leaseWaits := workers * stats.Dropouts * int(ttl/noTaskRetry+1)
	bound := stats.Answers + stats.Dropouts + stats.Returns + workers + leaseWaits
	if client.requests > bound {
		t.Fatalf("%d RequestTask calls, want <= %d (answers %d, dropouts %d, returns %d, workers %d, lease waits <= %d)",
			client.requests, bound, stats.Answers, stats.Dropouts, stats.Returns, workers, leaseWaits)
	}
}

// TestDrainDropoutDeterministic: the dropout path (including retry
// scheduling) stays reproducible from the seed.
func TestDrainDropoutDeterministic(t *testing.T) {
	run := func() string {
		clock := vclock.NewVirtual()
		engine, err := platform.NewEngineOpts(platform.EngineOptions{
			Clock:    clock,
			LeaseTTL: 2 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := newProject(t, engine, 2, 8)
		pool := NewPool(7, clock,
			Spec{Count: 4, Model: Uniform{P: 0.8}, Prefix: "flaky", Dropout: 0.3},
			Spec{Count: 2, Model: Perfect{}, Prefix: "solid"},
		)
		stats, err := pool.Drain(engine, p.ID, labelOracle)
		if err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("answers=%d dropouts=%d;", stats.Answers, stats.Dropouts)
		tasks, _ := engine.Tasks(p.ID)
		for _, task := range tasks {
			runs, _ := engine.Runs(task.ID)
			for _, r := range runs {
				out += fmt.Sprintf("%d:%s=%s@%s;", task.ID, r.WorkerID, r.Answer, r.Finished)
			}
		}
		return out
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("dropout drain not deterministic:\n%s\n%s", a, b)
	}
}

// TestDrainUnderShortLeaseTTL drains against the sched subsystem's lease
// semantics with a TTL shorter than every worker's think time: each lease
// is technically past its deadline by the time the answer arrives, but an
// unreclaimed lease still dates and accepts the submission, so nothing is
// lost and no scheduler state lingers after the drain.
func TestDrainUnderShortLeaseTTL(t *testing.T) {
	clock := vclock.NewVirtual()
	engine, err := platform.NewEngineOpts(platform.EngineOptions{
		Clock:    clock,
		LeaseTTL: 5 * time.Second, // workers think for a fixed 30s
	})
	if err != nil {
		t.Fatal(err)
	}
	p := newProject(t, engine, 3, 10)
	pool := NewPool(42, clock, Spec{Count: 5, Model: Perfect{}, Prefix: "w"})

	stats, err := pool.Drain(engine, p.ID, labelOracle)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Answers != 30 {
		t.Fatalf("answers = %d, want 30 (10 tasks × r=3)", stats.Answers)
	}
	st, _ := engine.Stats(p.ID)
	if st.CompletedTasks != 10 {
		t.Fatalf("completed = %d, want 10", st.CompletedTasks)
	}
	// Runs whose worker thought for the full 30s lease out the task far
	// past the 5s TTL; the expired-but-unreclaimed lease must still date
	// the answer at its assignment instant. (Drain's sequential event
	// loop submits most answers one tick after requesting, so only the
	// round-leading workers show the full gap.)
	longGaps := 0
	tasks, _ := engine.Tasks(p.ID)
	for _, task := range tasks {
		runs, _ := engine.Runs(task.ID)
		for _, r := range runs {
			if r.Finished.Before(r.Assigned) {
				t.Fatalf("run %d finished %v before assigned %v", r.ID, r.Finished, r.Assigned)
			}
			if r.Finished.Sub(r.Assigned) >= 29*time.Second {
				longGaps++
			}
		}
	}
	if longGaps == 0 {
		t.Fatal("no run outlived the 5s lease TTL; expired-lease dating untested")
	}
	qs, err := engine.QueueStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if qs.PendingTasks != 0 || qs.ActiveLeases != 0 || qs.AnsweredEntries != 0 {
		t.Fatalf("drain left scheduler state behind: %+v", qs)
	}
}

// TestDrainReturnDelayReconnect: abandon-and-return workers come back
// within the lease TTL, reconnect to the task they abandoned (the lease
// is still theirs) and finish it — so a pool of returners completes the
// project without any TTL reclaim.
func TestDrainReturnDelayReconnect(t *testing.T) {
	clock := vclock.NewVirtual()
	engine, err := platform.NewEngineOpts(platform.EngineOptions{
		Clock:    clock,
		LeaseTTL: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := newProject(t, engine, 1, 6)
	pool := NewPool(42, clock,
		Spec{Count: 3, Model: Perfect{}, Prefix: "returner", Dropout: 0.5, ReturnDelay: time.Minute},
	)
	stats, err := pool.Drain(engine, p.ID, labelOracle)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropouts == 0 || stats.Returns == 0 {
		t.Fatalf("drain exercised no churn: %+v", stats)
	}
	if stats.Returns > stats.Dropouts {
		t.Fatalf("returns %d exceed dropouts %d", stats.Returns, stats.Dropouts)
	}
	if stats.Answers != 6 {
		t.Fatalf("answers = %d, want 6", stats.Answers)
	}
	st, _ := engine.Stats(p.ID)
	if st.CompletedTasks != 6 {
		t.Fatalf("completed = %d, want 6", st.CompletedTasks)
	}
	// The proof this rode the reconnect path, not TTL reclaim: every
	// abandoned lease was still live (TTL 10m, returns after 1m) when its
	// worker came back, yet nothing was stranded.
	if stats.SimulatedWall >= 10*time.Minute {
		t.Fatalf("drain took %v — leases expired, so reclaim (not reconnect) finished it", stats.SimulatedWall)
	}
	qs, err := engine.QueueStats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if qs.PendingTasks != 0 || qs.ActiveLeases != 0 {
		t.Fatalf("drain left scheduler state behind: %+v", qs)
	}
}

// TestDrainReturnDelayDeterministic: the return path stays reproducible
// from the seed.
func TestDrainReturnDelayDeterministic(t *testing.T) {
	run := func() string {
		clock := vclock.NewVirtual()
		engine, err := platform.NewEngineOpts(platform.EngineOptions{
			Clock:    clock,
			LeaseTTL: 2 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := newProject(t, engine, 2, 8)
		pool := NewPool(7, clock,
			Spec{Count: 4, Model: Uniform{P: 0.8}, Prefix: "flaky", Dropout: 0.3, ReturnDelay: 45 * time.Second},
			Spec{Count: 2, Model: Perfect{}, Prefix: "solid"},
		)
		stats, err := pool.Drain(engine, p.ID, labelOracle)
		if err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("answers=%d dropouts=%d returns=%d;", stats.Answers, stats.Dropouts, stats.Returns)
		tasks, _ := engine.Tasks(p.ID)
		for _, task := range tasks {
			runs, _ := engine.Runs(task.ID)
			for _, r := range runs {
				out += fmt.Sprintf("%d:%s=%s@%s;", task.ID, r.WorkerID, r.Answer, r.Finished)
			}
		}
		return out
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("return-delay drain not deterministic:\n%s\n%s", a, b)
	}
}

// TestDrainCertainDropoutWithReturnTerminates: a worker who always
// abandons but always returns must not loop forever — re-entries are
// capped, the lease eventually expires, and a reliable worker reclaims
// the tasks.
func TestDrainCertainDropoutWithReturnTerminates(t *testing.T) {
	clock := vclock.NewVirtual()
	engine, err := platform.NewEngineOpts(platform.EngineOptions{
		Clock:    clock,
		LeaseTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := newProject(t, engine, 1, 3)
	pool := NewPool(3, clock,
		Spec{Count: 1, Model: Perfect{}, Prefix: "ghost", Dropout: 1, ReturnDelay: 90 * time.Second},
		Spec{Count: 1, Model: Perfect{}, Prefix: "solid"},
	)
	stats, err := pool.Drain(engine, p.ID, labelOracle)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Returns == 0 {
		t.Fatalf("ghost never returned: %+v", stats)
	}
	if stats.Returns > maxIdleRetries {
		t.Fatalf("returns %d exceed the re-entry cap %d", stats.Returns, maxIdleRetries)
	}
	st, _ := engine.Stats(p.ID)
	if st.CompletedTasks != 3 {
		t.Fatalf("completed = %d, want 3", st.CompletedTasks)
	}
	if n := stats.PerWorker["ghost-0"]; n != 0 {
		t.Fatalf("certain dropout submitted %d answers", n)
	}
}
