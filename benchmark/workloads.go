package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/platform"
)

// sizes are a workload's frozen constants. They were calibrated once on
// the 2-core reference box so that a run at -seconds 10 measures for
// about ten seconds, and are never derived from machine speed: -seconds
// only scales the round and probe counts (see scaled).
type sizes struct {
	entities int // corpus entities behind the pair set (join workloads)
	pairs    int // pairs per join round
	tasks    int // submit_direct: tasks per round; read_mix: tasks per project
	ops      int // read_mix: operations per round
	rounds   int // work rounds at -seconds 10
	sweep    int // reads per read-back round (0: the work phase is the read phase)
	sweeps   int // read-back rounds at -seconds 10
	reruns   int // repetitions of the re-run at -seconds 10
	probes   int // repetitions of recover, and half those of catch-up, at -seconds 10
}

// workload is one entry of BENCHMARK.json's workload list.
type workload struct {
	name  string
	gated bool // 2 leaders + 2 followers + gateway, or one leader alone
	full  sizes
	short sizes // the go-test smoke
	job   func() job
}

const (
	redundancy   = 3
	batchSize    = 256
	warmPairs    = 32
	warmTasks    = 64
	preAnswers   = 2 // read_mix: answers per task before the mix starts
	mixRedundant = 5 // read_mix: task redundancy, leaving 3 open slots
	zipfS        = 1.1
	setupWriters = 8 // read_mix: goroutines pre-answering each project during set-up
	// setups is how many times a run stands its workload up; setup_s is
	// the median.
	setups = 3
)

var workloads = []workload{
	{
		name: "join_gated", gated: true,
		full:  sizes{entities: 80, pairs: 500, rounds: 4, sweep: 1000, sweeps: 6, reruns: 5, probes: 15},
		short: sizes{entities: 24, pairs: 60, rounds: 1, sweep: 100, sweeps: 1, reruns: 1, probes: 1},
		job:   func() job { return &joinJob{} },
	},
	{
		name: "submit_direct", gated: false,
		full:  sizes{tasks: 1000, rounds: 10, sweep: 2000, sweeps: 6, reruns: 5, probes: 7},
		short: sizes{tasks: 100, rounds: 2, sweep: 100, sweeps: 1, reruns: 1, probes: 1},
		job:   func() job { return &drainJob{} },
	},
	{
		name: "read_mix", gated: true,
		full:  sizes{tasks: 2048, ops: 4000, rounds: 10, reruns: 5, probes: 15},
		short: sizes{tasks: 128, ops: 600, rounds: 2, reruns: 1, probes: 1},
		job:   func() job { return &mixJob{} },
	},
	{
		name: "rerun_recover", gated: true,
		full:  sizes{entities: 80, pairs: 750, rounds: 2, sweep: 1000, sweeps: 6, reruns: 9, probes: 21},
		short: sizes{entities: 24, pairs: 80, rounds: 1, sweep: 100, sweeps: 1, reruns: 2, probes: 2},
		job:   func() job { return &joinJob{} },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	traced  bool
	short   bool
	dataDir string // parent of the run's scratch directory
	outDir  string // where a traced run writes <workload>.trace.json
}

// scaled turns a count calibrated for -seconds 10 into this run's count.
func (c config) scaled(n int) int {
	return max((n*c.seconds+5)/10, 1)
}

// job is what differs between workloads: how the work is generated and
// what "re-run it" means. Everything else — topology, read-back, recover,
// catch-up, accounting — is shared.
type job interface {
	// setup generates the inputs from the seed, pre-publishes what the
	// workload needs in place before timing, and warms up.
	setup(r *run) error
	// work runs one timed round and returns the Submits accepted in it.
	work(r *run, round int, rec *recorder) (accepted int, err error)
	// rerun repeats the whole job against the state the work left behind;
	// it must add no task, send no Submit and see the same answers.
	rerun(r *run, rec *recorder) error
	// readable lists the task and project ids the read-back phase reads.
	readable() (tasks, projects []int64, err error)
	// check runs the workload's own output checks.
	check(r *run)
	close()
}

// round is one timed repetition of a phase.
type round struct {
	wall     float64 // seconds
	accepted int     // Submits accepted
	reads    int     // Runs + Stats replies
}

// run is one workload execution.
type run struct {
	cfg config
	w   workload
	sz  sizes
	dir string
	tr  *tracer
	c   *cluster
	job job
	rng *rand.Rand

	load []*conn // one per load goroutine, kept across phases so pools stay warm
	ctl  *conn   // the requester's connection

	setupSecs []float64
	topPairs  time.Duration

	workRec, readRec *recorder
	workRounds       []round
	readRounds       []round
	rerunSecs        []float64
	recoverSecs      []float64
	catchupSecs      []float64
	rerunRec         *recorder

	timed *window // per-layer deltas over work + read-back
	// Journal commit totals when the timed section ended (the leaders are
	// reopened later, which resets their counters).
	commitNs, flushes uint64
	recovers          []openTimes
	boots             []float64 // fresh-follower bootstrap seconds
	coreOpen          []float64 // context reopen seconds

	failures []string // output checks that did not hold
	notes    []string // observations printed with the results
	// Follower re-bootstraps when set-up ended: set-up may outrun a
	// follower past a checkpoint truncation; the measured phases may not.
	bootsAtStart uint64
}

func (r *run) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// notef records an observation that is printed with the results but does
// not fail the run.
func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// nproc is the number of load goroutines: one per CPU, never more than
// the two the reference box has.
func nproc() int {
	return min(runtime.NumCPU(), 2)
}

// parallel runs fn on nproc goroutines and returns the first error.
func parallel(fn func(g int) error) error {
	n := nproc()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = fn(g)
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// standUp starts the topology, opens the load connections and runs the
// job's setup: everything setup_s covers.
func (r *run) standUp(attempt int) error {
	var err error
	r.c, err = startCluster(fmt.Sprintf("%s/c%d", r.dir, attempt), r.w.gated, r.tr)
	if err != nil {
		return err
	}
	r.load = nil
	for g := 0; g < nproc(); g++ {
		r.load = append(r.load, r.c.dial())
	}
	r.ctl = r.c.dial()
	r.rng = rand.New(rand.NewSource(r.cfg.seed))
	r.job = r.w.job()
	if err := r.job.setup(r); err != nil {
		return err
	}
	return r.c.settle()
}

func (r *run) tearDown() {
	if r.job != nil {
		r.job.close()
		r.job = nil
	}
	if r.c != nil {
		r.c.stop()
		r.c = nil
	}
}

// execute runs the whole lifecycle: stand up (three times, keeping the
// last), work, read back, re-run, recover, catch up, check.
func (r *run) execute() error {
	for i := 0; i < setups; i++ {
		if i > 0 {
			r.tearDown()
		}
		t0 := time.Now()
		if err := r.standUp(i); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setupSecs = append(r.setupSecs, time.Since(t0).Seconds())
		if r.cfg.short {
			break // the smoke stands up once
		}
	}

	for _, f := range r.c.followers {
		r.bootsAtStart += f.node.Stats().Rebootstraps
	}
	r.timed = openWindow(r)
	r.workRec = &recorder{}
	for i := 0; i < r.cfg.scaled(r.sz.rounds); i++ {
		rec := &recorder{}
		t0 := time.Now()
		accepted, err := r.job.work(r, i, rec)
		if err != nil {
			return fmt.Errorf("work round %d: %w", i, err)
		}
		r.workRounds = append(r.workRounds, round{
			wall: time.Since(t0).Seconds(), accepted: accepted,
			reads: len(rec.lat[opRuns]) + len(rec.lat[opStats]),
		})
		r.workRec.merge(rec)
	}
	if r.sz.sweep == 0 {
		r.readRec, r.readRounds = r.workRec, r.workRounds
	} else {
		r.readRec = &recorder{}
		if err := r.c.settle(); err != nil {
			return err
		}
		for i := 0; i < r.cfg.scaled(r.sz.sweeps); i++ {
			rd, err := r.readBack(i)
			if err != nil {
				return fmt.Errorf("read-back round %d: %w", i, err)
			}
			r.readRounds = append(r.readRounds, rd)
		}
	}
	r.timed.close(r)
	for _, l := range r.c.leaders {
		st := l.j.Stats()
		r.commitNs, r.flushes = r.commitNs+st.CommitNanos, r.flushes+st.Flushes
	}

	if err := r.c.settle(); err != nil {
		return err
	}
	r.rerunRec = &recorder{}
	for i := 0; i < r.cfg.scaled(r.sz.reruns); i++ {
		runtime.GC() // each repetition starts from the same heap, not its predecessor's garbage
		t0 := time.Now()
		if err := r.job.rerun(r, r.rerunRec); err != nil {
			return fmt.Errorf("re-run %d: %w", i, err)
		}
		r.rerunSecs = append(r.rerunSecs, time.Since(t0).Seconds())
	}
	for i := 0; i < r.cfg.scaled(r.sz.probes); i++ {
		if err := r.recoverLeader(); err != nil {
			return fmt.Errorf("recover %d: %w", i, err)
		}
	}
	// Catch-ups need no settling afterwards, so they can afford twice the
	// repetitions; on the join workloads one takes about ten milliseconds.
	for i := 0; i < 2*r.cfg.scaled(r.sz.probes); i++ {
		if err := r.catchUp(i == 0); err != nil {
			return fmt.Errorf("catch-up %d: %w", i, err)
		}
	}
	r.check()
	return nil
}

// readBack is one round of the read-back phase: the load goroutines fetch
// Runs for sz.sweep tasks (striding the task list from a per-round
// offset) and a project's Stats every 50th read, through the workload's
// front door.
func (r *run) readBack(n int) (round, error) {
	tasks, projects, err := r.job.readable()
	if err != nil {
		return round{}, err
	}
	rec := &recorder{}
	t0 := time.Now()
	err = parallel(func(g int) error {
		cl := r.load[g].meter(rec, "client")
		for i := g; i < r.sz.sweep; i += nproc() {
			if i%50 == 49 {
				if _, err := cl.Stats(projects[i%len(projects)]); err != nil {
					return err
				}
				continue
			}
			if _, err := cl.Runs(tasks[(n*r.sz.sweep+i)%len(tasks)]); err != nil {
				return err
			}
		}
		return nil
	})
	rd := round{wall: time.Since(t0).Seconds(), reads: len(rec.lat[opRuns]) + len(rec.lat[opStats])}
	r.readRec.merge(rec)
	return rd, err
}

// recoverLeader is section (b): stop leader n1, reopen it from its data
// directory on the same address, and time from the start of the reopen to
// the first PlatformStats reply over HTTP that matches the pre-stop
// counts.
func (r *run) recoverLeader() error {
	l := r.c.leaders[0]
	direct := r.c.direct(l)
	before, err := direct.api.PlatformStats()
	if err != nil {
		return err
	}
	l.stop()
	runtime.GC() // a probe this short should not also pay for the work phase's garbage
	t0 := time.Now()
	if err := l.start(); err != nil {
		return err
	}
	after, err := direct.api.PlatformStats()
	if err != nil {
		return err
	}
	r.recoverSecs = append(r.recoverSecs, time.Since(t0).Seconds())
	r.recovers = append(r.recovers, l.opened)
	if after.Projects != before.Projects || after.Tasks != before.Tasks || after.Runs != before.Runs ||
		after.Journal == nil || after.Journal.Len != before.Journal.Len {
		r.failf("reopened %s reports %d/%d/%d projects/tasks/runs, had %d/%d/%d before the stop",
			l.name, after.Projects, after.Tasks, after.Runs, before.Projects, before.Tasks, before.Runs)
	}
	// The follower's stream and the gateway's probes find the node again
	// on their own; wait for that so the next probe starts quiesced.
	return r.c.settle()
}

// catchUp is section (c): start a fresh follower against the last leader
// and time until it has applied the leader's whole journal. verify also
// compares the two engines' exported state.
func (r *run) catchUp(verify bool) error {
	l := r.c.leaders[len(r.c.leaders)-1]
	want := l.j.Len()
	runtime.GC() // as in recoverLeader
	t0 := time.Now()
	f, err := startFollower("probe", l, nil, nil)
	if err != nil {
		return err
	}
	defer f.stop()
	boot := time.Since(t0).Seconds()
	if err := f.node.Follower().WaitFor(want, settleTimeout); err != nil {
		return err
	}
	r.catchupSecs = append(r.catchupSecs, time.Since(t0).Seconds())
	r.boots = append(r.boots, boot)
	if verify {
		a, err := l.engine.ExportState(want)
		if err != nil {
			return err
		}
		b, err := f.node.Engine().ExportState(want)
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			r.failf("fresh follower's exported state differs from %s's (%d vs %d bytes)", l.name, len(b), len(a))
		}
	}
	return nil
}

// check runs the output checks every workload shares, then the job's own.
func (r *run) check() {
	if err := r.c.settle(); err != nil {
		r.failf("followers did not end at lag 0: %v", err)
	}
	var boots uint64
	for _, f := range r.c.followers {
		st := f.node.Stats()
		boots += st.Rebootstraps
		if st.Lag != 0 {
			r.failf("follower %s ended with lag %d", f.name, st.Lag)
		}
	}
	if boots != r.bootsAtStart {
		r.failf("followers re-bootstrapped %d times after set-up", boots-r.bootsAtStart)
	}
	for _, rec := range []*recorder{r.workRec, r.readRec, r.rerunRec} {
		if rec.failed > 0 {
			r.failf("%d client calls failed, first: %v", rec.failed, rec.firstErr)
		}
	}
	if n := r.rerunRec.calls[opSubmit]; n != 0 {
		r.failf("re-run sent %d Submits", n)
	}
	if r.c.gated() {
		r.checkGatewayReads()
	}
	r.job.check(r)
}

// checkGatewayReads compares a sample of reads through the gateway with
// the same reads made directly at the owning leader, after quiesce: they
// must be byte-identical, whichever of cache, follower or leader served
// them.
func (r *run) checkGatewayReads() {
	tasks, _, err := r.job.readable()
	if err != nil {
		r.failf("listing the tasks to compare: %v", err)
		return
	}
	step := len(tasks)/100 + 1
	for i := 0; i < len(tasks); i += step {
		via, err := r.ctl.api.Runs(tasks[i])
		if err != nil {
			r.failf("runs of task %d through the gateway: %v", tasks[i], err)
			return
		}
		var want []platform.TaskRun
		for _, l := range r.c.leaders {
			if want, err = r.c.direct(l).api.Runs(tasks[i]); err == nil {
				break
			}
		}
		a, _ := json.Marshal(via)
		b, _ := json.Marshal(want)
		if err != nil || !bytes.Equal(a, b) {
			r.failf("task %d: gateway read %s, leader read %s (%v)", tasks[i], a, b, err)
			return
		}
	}
}

// leaderTotals sums each leader's own PlatformStats.
func (r *run) leaderTotals() (tasks, runs int, events uint64) {
	for _, l := range r.c.leaders {
		st := l.engine.PlatformStats()
		tasks += st.Tasks
		runs += st.Runs
		events += l.j.Len()
	}
	return
}
