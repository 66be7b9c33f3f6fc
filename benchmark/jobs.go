package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/distops"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/platform"
	"repro/internal/quality"
	"repro/internal/simdata"
	"repro/internal/similarity"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// The three jobs behind the four workloads: a distops crowd join, a
// direct drain of one leader, and a read-mostly operation mix.

// ---------------------------------------------------------------------
// joinJob: join_gated and rerun_recover.

type joinJob struct {
	corpus  simdata.ERCorpus
	rounds  [][]ops.ScoredPair // the pair set, dealt round-robin into rounds
	warm    []ops.ScoredPair
	ctxDir  string
	ctxReg  *obs.Registry
	cc      *core.CrowdContext
	ctlCl   *meteredClient // the context's client; its recorder is swapped per round
	pools   []*crowd.Pool  // one per partition, sharing that leader's clock
	oracle  crowd.FuncOracle
	results []distops.Result // one per work round

	mu                  sync.Mutex
	acc                 *joinAcc         // where the join in progress accounts itself
	timed               joinAcc          // the work rounds' account; warm-up and re-runs keep their own
	shardProj           map[string]int64 // shard table → project id
	pollOpen            map[int64]bool   // project → a collector poll round is in progress
	pollFresh           map[int64]bool   // project → that round has produced a verdict
	taskIDs, projectIDs []int64          // what readable returns, listed once
	// Largest per-round disagreement between match sets, reported only.
	batchDiffers, rerunDiffers int
}

// joinAcc is what joins add up for the per-layer report.
type joinAcc struct {
	// The joins' phases: first AddTasks start → last AddTasks end → last
	// Submit ack → CrowdJoin return.
	publishS, answerS, tailS float64
	// The crowd drains' wall time and the part of it inside client calls.
	drainS, inCallsS  float64
	dropouts, returns int
	// The collectors' poll rounds, and those that produced a verdict.
	polls, usefulPolls int
}

func (j *joinJob) partitions(r *run) []string {
	var names []string
	for _, l := range r.c.leaders {
		names = append(names, l.name)
	}
	return names
}

func (j *joinJob) setup(r *run) error {
	nRounds := r.cfg.scaled(r.sz.rounds)
	j.corpus = simdata.Restaurants(simdata.ERConfig{
		Seed: r.cfg.seed, Entities: r.sz.entities, DupProb: 0.5, MaxDups: 2, NoiseOps: 2,
	})
	records := make([]ops.Record, len(j.corpus.Records))
	for i, rec := range j.corpus.Records {
		records[i] = ops.Record{ID: rec.ID, Fields: rec.Fields}
	}
	want := r.sz.pairs*nRounds + warmPairs
	t0 := time.Now()
	pairs, err := ops.TopPairs(records, want, similarity.Measure{})
	if err != nil {
		return err
	}
	r.topPairs = time.Since(t0)
	if len(pairs) < want {
		return fmt.Errorf("corpus of %d records yields %d pairs, want %d", len(records), len(pairs), want)
	}
	j.warm, pairs = pairs[len(pairs)-warmPairs:], pairs[:len(pairs)-warmPairs]
	j.rounds = make([][]ops.ScoredPair, nRounds)
	for i, p := range pairs {
		j.rounds[i%nRounds] = append(j.rounds[i%nRounds], p)
	}

	truth := j.corpus.Matches
	j.oracle = crowd.FuncOracle{
		TruthFunc: func(p map[string]string) string {
			if truth[metrics.PairKey(p["id_a"], p["id_b"])] {
				return "Yes"
			}
			return "No"
		},
		OptionsFunc: func(map[string]string) []string { return []string{"Yes", "No"} },
	}
	for i, l := range r.c.leaders {
		churn := crowd.Spec{Dropout: 0.05, ReturnDelay: 10 * time.Second}
		good, spam := churn, churn
		good.Count, good.Model, good.Prefix = 5, crowd.TwoCoin{Positive: "Yes", Negative: "No", TPR: 0.9, TNR: 0.9}, fmt.Sprintf("good%d", i)
		spam.Count, spam.Model, spam.Prefix = 1, crowd.Spammer{}, fmt.Sprintf("spam%d", i)
		j.pools = append(j.pools, crowd.NewPool(r.cfg.seed+int64(i), l.clock, good, spam))
	}

	j.ctxDir = r.c.dir + "/ctx"
	j.ctxReg = newRegistry(r.tr)
	j.ctlCl = r.ctl.meter(&recorder{}, "client").(*meteredClient)
	if err := j.open(); err != nil {
		return err
	}
	j.shardProj = map[string]int64{}
	_, err = j.join(r, "warm", j.warm, &recorder{}, &joinAcc{}, true)
	return err
}

func (j *joinJob) open() error {
	var err error
	j.cc, err = core.NewContext(core.Options{
		DBDir: j.ctxDir, Client: j.ctlCl, Clock: vclock.NewVirtual(),
		Storage: storage.Options{Metrics: j.ctxReg},
	})
	return err
}

func (j *joinJob) close() {
	if j.cc != nil {
		j.cc.Close()
	}
}

// join runs one distops.CrowdJoin. With answer set, each shard's crowd
// pool drains it through that shard's own load connection; otherwise the
// crowd is not asked at all (the re-run).
func (j *joinJob) join(r *run, table string, pairs []ops.ScoredPair, rec *recorder, acc *joinAcc, answer bool) (distops.Result, error) {
	j.ctlCl.rec, j.acc = rec, acc
	parts := j.partitions(r)
	var lastAck time.Time
	cfg := distops.Config{
		Partitions: parts, Table: table, Redundancy: redundancy,
		BatchSize: batchSize, Concurrency: 2, PollInterval: 2 * time.Millisecond,
		// The context clock is virtual (it only stamps rows); the
		// collector paces real HTTP polls, so it gets wall time.
		Clock:   vclock.NewWall(),
		Quality: quality.NewOnlineDawidSkene(quality.DawidSkene{}, 64),
		OnVerdict: func(v distops.Verdict) {
			j.mu.Lock()
			j.pollFresh[j.shardProj[v.Table]] = true
			j.mu.Unlock()
		},
		Answer: func(sr distops.ShardRun) error {
			j.mu.Lock()
			j.shardProj[sr.Table] = sr.ProjectID
			j.mu.Unlock()
			if !answer {
				return nil
			}
			shard := sort.SearchStrings(parts, sr.Partition)
			drainRec := &recorder{}
			t0 := time.Now()
			st, err := j.pools[shard].Drain(r.load[shard].meter(drainRec, "crowd"), sr.ProjectID, j.oracle)
			t1 := time.Now()
			j.mu.Lock()
			acc.drainS += t1.Sub(t0).Seconds()
			for o := op(0); o < numOps; o++ {
				acc.inCallsS += drainRec.busy[o]
			}
			acc.dropouts += st.Dropouts
			acc.returns += st.Returns
			if drainRec.last[opSubmit].After(lastAck) {
				lastAck = drainRec.last[opSubmit]
			}
			rec.merge(drainRec)
			j.mu.Unlock()
			return err
		},
	}
	j.pollOpen, j.pollFresh = map[int64]bool{}, map[int64]bool{}
	j.ctlCl.onTasks = j.pollRound
	res, err := distops.CrowdJoin(j.cc, pairs, cfg)
	end := time.Now()
	j.ctlCl.onTasks = nil
	j.mu.Lock()
	for pid := range j.pollOpen { // close the last round of each shard
		j.pollRoundLocked(pid)
	}
	j.mu.Unlock()
	if err != nil {
		return res, err
	}
	if answer {
		acc.publishS += rec.last[opAddTasks].Sub(rec.first[opAddTasks]).Seconds()
		acc.answerS += lastAck.Sub(rec.last[opAddTasks]).Seconds()
		acc.tailS += end.Sub(lastAck).Seconds()
	}
	return res, nil
}

// pollRound is called at the start of every Tasks call the collector
// makes: it closes the project's previous poll round and opens the next.
func (j *joinJob) pollRound(projectID int64) {
	j.mu.Lock()
	j.pollRoundLocked(projectID)
	j.pollOpen[projectID] = true
	j.mu.Unlock()
}

func (j *joinJob) pollRoundLocked(projectID int64) {
	if j.pollOpen[projectID] {
		j.acc.polls++
		if j.pollFresh[projectID] {
			j.acc.usefulPolls++
		}
	}
	delete(j.pollOpen, projectID)
	delete(j.pollFresh, projectID)
}

func (j *joinJob) work(r *run, n int, rec *recorder) (int, error) {
	res, err := j.join(r, fmt.Sprintf("join%d", n), j.rounds[n], rec, &j.timed, true)
	j.results = append(j.results, res)
	return res.Cost.Answers, err
}

func (j *joinJob) rerun(r *run, rec *recorder) error {
	j.cc.Close()
	t0 := time.Now()
	if err := j.open(); err != nil {
		return err
	}
	r.coreOpen = append(r.coreOpen, time.Since(t0).Seconds())
	for n := range j.results {
		res, err := j.join(r, fmt.Sprintf("join%d", n), j.rounds[n], rec, &joinAcc{}, false)
		if err != nil {
			return err
		}
		if voteDigest(res.Votes) != voteDigest(j.results[n].Votes) {
			r.failf("re-run of round %d collected different votes than the run", n)
		}
		j.rerunDiffers = max(j.rerunDiffers, differing(res.Matches, j.results[n].Matches))
	}
	return nil
}

// differing counts the keys in exactly one of the two sets. Match sets
// are compared for information only: three votes a pair with a spammer in
// the pool leave the EM more than one fixed point, so the streamed fit
// (warm-started in arrival order), a batch fit and a re-run (streamed in
// task order) settle differently on a few percent of pairs. What a re-run
// must reproduce exactly is the votes.
func differing(a, b map[string]bool) int {
	n := 0
	for k := range a {
		if !b[k] {
			n++
		}
	}
	for k := range b {
		if !a[k] {
			n++
		}
	}
	return n
}

// voteDigest renders a vote set canonically: items sorted, each item's
// votes in the order collected (run id order, the same on every read).
func voteDigest(votes map[string][]quality.Vote) string {
	items := make([]string, 0, len(votes))
	for item := range votes {
		items = append(items, item)
	}
	sort.Strings(items)
	var buf bytes.Buffer
	for _, item := range items {
		buf.WriteString(item)
		for _, v := range votes[item] {
			fmt.Fprintf(&buf, "|%s=%s", v.Worker, v.Value)
		}
		buf.WriteByte(';')
	}
	return buf.String()
}

// readable lists every shard project's tasks, once: nothing is published
// after the work phase.
func (j *joinJob) readable() (tasks, projects []int64, err error) {
	if j.taskIDs == nil {
		j.projectIDs = nil
		for _, pid := range j.shardProj {
			j.projectIDs = append(j.projectIDs, pid)
		}
		slices.Sort(j.projectIDs)
		for _, pid := range j.projectIDs {
			ts, err := j.ctlCl.inner.Tasks(pid)
			if err != nil {
				j.taskIDs = nil
				return nil, nil, err
			}
			for _, t := range ts {
				j.taskIDs = append(j.taskIDs, t.ID)
			}
		}
	}
	return j.taskIDs, j.projectIDs, nil
}

func (j *joinJob) check(r *run) {
	pairs := warmPairs
	for n := range j.results {
		pairs += len(j.rounds[n])
	}
	tasks, runs, _ := r.leaderTotals()
	if tasks != pairs || runs != pairs*redundancy {
		r.failf("leaders hold %d tasks and %d runs, want %d and %d", tasks, runs, pairs, pairs*redundancy)
	}
	if n := r.rerunRec.calls[opAddTasks]; n != 0 {
		r.failf("re-run published tasks (%d AddTasks calls)", n)
	}
	predicted, truth := map[string]bool{}, map[string]bool{}
	for n, res := range j.results {
		if res.Streamed != len(j.rounds[n])*redundancy {
			r.failf("round %d streamed %d verdicts, want %d", n, res.Streamed, len(j.rounds[n])*redundancy)
		}
		fit := quality.DawidSkene{}.Fit(res.Votes)
		batch := map[string]bool{}
		for _, sp := range j.rounds[n] {
			k := metrics.PairKey(sp.A.ID, sp.B.ID)
			if d, ok := fit.Decisions[ops.PairRowID(sp.A.ID, sp.B.ID)]; ok && d.Value == "Yes" {
				batch[k] = true
			}
			if j.corpus.Matches[k] {
				truth[k] = true
			}
		}
		j.batchDiffers = max(j.batchDiffers, differing(res.Matches, batch))
		for k := range res.Matches {
			predicted[k] = true
		}
	}
	f1 := metrics.PairQuality(predicted, truth).F1
	if floor := f1Floor(len(truth), pairs-warmPairs); f1 < floor {
		r.failf("F1 %.3f over %d pairs is below the floor %.3f the worker models predict", f1, pairs-warmPairs, floor)
	}
	r.notef("match sets differ on at most %d pairs of a round between the streamed and a batch Dawid-Skene fit, %d between run and re-run (votes identical)",
		j.batchDiffers, j.rerunDiffers)
}

// f1Floor is the F1 a plain majority of three votes would be expected to
// reach on a pair set with this many true matches, given the pool's
// worker models (five workers right 90% of the time on either class, one
// answering at random), less a quarter for sampling noise. Dawid-Skene
// discounts the spammer, so it must not do worse.
func f1Floor(matches, pairs int) float64 {
	if matches == 0 {
		return 0
	}
	p := (5*0.9 + 0.5) / 6
	acc := p*p*p + 3*p*p*(1-p)
	tp := float64(matches) * acc
	fn := float64(matches) * (1 - acc)
	fp := float64(pairs-matches) * (1 - acc)
	return 0.75 * 2 * tp / (2*tp + fp + fn)
}

// ---------------------------------------------------------------------
// Platform-level jobs share publishing and the platform-level re-run.

// published is one project's tasks as first published.
type published struct {
	project platform.Project
	specs   []platform.TaskSpec
	ids     []int64
}

// publish ensures the project and adds n tasks to it in batches.
func publish(cl platform.Client, name string, n, red int) (published, error) {
	var p published
	var err error
	p.project, err = cl.EnsureProject(platform.ProjectSpec{Name: name, Presenter: "text", Redundancy: red})
	if err != nil {
		return p, err
	}
	for i := 0; i < n; i++ {
		p.specs = append(p.specs, platform.TaskSpec{
			ExternalID: fmt.Sprintf("%s-%05d", name, i),
			Payload:    map[string]string{"question": fmt.Sprintf("Is item %d of %s a match?", i, name)},
		})
	}
	p.ids, err = addAll(cl, p)
	return p, err
}

func addAll(cl platform.Client, p published) ([]int64, error) {
	var ids []int64
	for off := 0; off < len(p.specs); off += batchSize {
		end := min(off+batchSize, len(p.specs))
		ts, err := cl.AddTasks(p.project.ID, p.specs[off:end])
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			ids = append(ids, t.ID)
		}
	}
	return ids, nil
}

// answerDigest folds every task's answers into one comparable value.
func answerDigest(cl platform.Client, ps []published) (string, int, error) {
	var buf bytes.Buffer
	n := 0
	for _, p := range ps {
		for _, id := range p.ids {
			runs, err := cl.Runs(id)
			if err != nil {
				return "", 0, err
			}
			n += len(runs)
			for _, run := range runs {
				fmt.Fprintf(&buf, "%d:%d:%s:%s;", id, run.ID, run.WorkerID, run.Answer)
			}
		}
	}
	return buf.String(), n, nil
}

// platformRerun is the re-run of a job that talks to the platform
// directly: publish the same specs again (the ExternalID idempotency key
// must return the existing tasks) and fetch every answer again.
func platformRerun(r *run, cl platform.Client, ps []published, want string) error {
	for _, p := range ps {
		ids, err := addAll(cl, p)
		if err != nil {
			return err
		}
		if !slices.Equal(ids, p.ids) {
			r.failf("re-publishing %s returned different task ids", p.project.Name)
		}
	}
	got, _, err := answerDigest(cl, ps)
	if err != nil {
		return err
	}
	if got != want {
		r.failf("re-run read different answers than the run left behind")
	}
	return nil
}

func allIDs(ps []published) (tasks, projects []int64, err error) {
	for _, p := range ps {
		projects = append(projects, p.project.ID)
		tasks = append(tasks, p.ids...)
	}
	return tasks, projects, nil
}

// ---------------------------------------------------------------------
// drainJob: submit_direct.

type drainJob struct {
	warm    published
	rounds  []published
	ran     int
	answers string // digest after the work phase
}

func (j *drainJob) close() {}

func (j *drainJob) setup(r *run) error {
	var err error
	for n := 0; n < r.cfg.scaled(r.sz.rounds); n++ {
		p, err := publish(r.ctl.api, fmt.Sprintf("drain%d", n), r.sz.tasks, redundancy)
		if err != nil {
			return err
		}
		j.rounds = append(j.rounds, p)
	}
	if j.warm, err = publish(r.ctl.api, "warm", warmTasks, redundancy); err != nil {
		return err
	}
	_, err = j.drain(r, j.warm, &recorder{})
	return err
}

// drain has every load goroutine act as three workers, each looping
// RequestTask + Submit until the project has nothing left for it.
func (j *drainJob) drain(r *run, p published, rec *recorder) (int, error) {
	accepted := make([]int, nproc())
	err := parallel(func(g int) error {
		cl := r.load[g].meter(rec, "crowd")
		rng := rand.New(rand.NewSource(r.cfg.seed + p.project.ID + int64(g)))
		active := []string{fmt.Sprintf("w%d-a", g), fmt.Sprintf("w%d-b", g), fmt.Sprintf("w%d-c", g)}
		for i := 0; len(active) > 0; i++ {
			w := i % len(active)
			t, err := cl.RequestTask(p.project.ID, active[w])
			if errors.Is(err, platform.ErrNoTask) {
				active = append(active[:w], active[w+1:]...)
				continue
			}
			if err != nil {
				return err
			}
			answer := "Yes"
			if rng.Intn(2) == 0 {
				answer = "No"
			}
			if _, err := cl.Submit(t.ID, active[w], answer); err == nil {
				accepted[g]++
			} else if !expected(err) {
				return err
			}
		}
		return nil
	})
	total := 0
	for _, a := range accepted {
		total += a
	}
	return total, err
}

func (j *drainJob) work(r *run, n int, rec *recorder) (int, error) {
	j.ran++
	return j.drain(r, j.rounds[n], rec)
}

func (j *drainJob) rerun(r *run, rec *recorder) error {
	cl := r.ctl.meter(rec, "client")
	if j.answers == "" {
		var err error
		if j.answers, _, err = answerDigest(r.ctl.api, j.rounds[:j.ran]); err != nil {
			return err
		}
	}
	return platformRerun(r, cl, j.rounds[:j.ran], j.answers)
}

func (j *drainJob) readable() (tasks, projects []int64, err error) { return allIDs(j.rounds[:j.ran]) }

func (j *drainJob) check(r *run) {
	tasks, runs, events := r.leaderTotals()
	wantTasks := warmTasks
	wantEvents := 0
	for _, p := range append([]published{j.warm}, j.rounds...) {
		wantEvents += 1 + (len(p.specs)+batchSize-1)/batchSize // the project, then one event per batch
	}
	for _, p := range j.rounds {
		wantTasks += len(p.specs)
	}
	wantRuns := (warmTasks + j.ran*r.sz.tasks) * redundancy
	if tasks != wantTasks || runs != wantRuns {
		r.failf("leader holds %d tasks and %d runs, want %d and %d", tasks, runs, wantTasks, wantRuns)
	}
	if want := uint64(wantEvents + wantRuns); events != want {
		r.failf("journal holds %d events, want %d", events, want)
	}
	if _, n, err := answerDigest(r.ctl.api, j.rounds[:j.ran]); err != nil || n != j.ran*r.sz.tasks*redundancy {
		r.failf("read back %d runs, want %d (%v)", n, j.ran*r.sz.tasks*redundancy, err)
	}
}

// ---------------------------------------------------------------------
// mixJob: read_mix.

type mixJob struct {
	projects []published
	order    []int64 // task ids in seeded order; Zipf rank → id
	answers  string
	writes   int
}

func (j *mixJob) close() {}

func (j *mixJob) setup(r *run) error {
	// One project per partition: the gateway places a project by hashing
	// its name on the ring, so try names until each partition has one.
	ring := r.c.leaders[0].ring
	for _, l := range r.c.leaders {
		name := ""
		for i := 0; name == ""; i++ {
			if n := fmt.Sprintf("mix-%s-%d", l.name, i); ring.LookupString(n) == l.name {
				name = n
			}
		}
		p, err := publish(r.ctl.api, name, r.sz.tasks, mixRedundant)
		if err != nil {
			return err
		}
		if got := ring.Lookup(p.project.ID); got != l.name {
			return fmt.Errorf("project %s landed on %s, want %s", name, got, l.name)
		}
		j.projects = append(j.projects, p)
	}
	j.order, _, _ = allIDs(j.projects)
	r.rng.Shuffle(len(j.order), func(a, b int) { j.order[a], j.order[b] = j.order[b], j.order[a] })
	// Pre-answer every task straight at its leader. This is set-up, not
	// load: it runs wider than nproc so the journal's group commit can
	// share fsyncs, and it skips the gateway.
	errs := make([]error, len(j.projects)*setupWriters)
	var wg sync.WaitGroup
	for pi, p := range j.projects {
		direct := r.c.direct(r.c.leaders[pi])
		for g := 0; g < setupWriters; g++ {
			wg.Add(1)
			go func(slot, g int, ids []int64) {
				defer wg.Done()
				for i := g; i < len(ids) && errs[slot] == nil; i += setupWriters {
					for a := 0; a < preAnswers && errs[slot] == nil; a++ {
						_, errs[slot] = direct.api.Submit(ids[i], fmt.Sprintf("pre-%d", a), "Yes")
					}
				}
			}(pi*setupWriters+g, g, p.ids)
		}
	}
	wg.Wait()
	return errors.Join(errs...)
}

// work replays one round of the seeded operation sequence: 85% Runs of a
// Zipf-ranked task, 5% Stats of a project, 10% RequestTask + Submit into
// an open answer slot. Each load goroutine replays its own half.
func (j *mixJob) work(r *run, n int, rec *recorder) (int, error) {
	accepted := make([]int, nproc())
	err := parallel(func(g int) error {
		cl := r.load[g].meter(rec, "client")
		rng := rand.New(rand.NewSource(r.cfg.seed + int64(n)*131 + int64(g)))
		zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(j.order)-1))
		workers := []string{fmt.Sprintf("mix%d-a", g), fmt.Sprintf("mix%d-b", g), fmt.Sprintf("mix%d-c", g)}
		for i := 0; i < r.sz.ops/nproc(); i++ {
			switch k := rng.Intn(100); {
			case k < 85:
				if _, err := cl.Runs(j.order[zipf.Uint64()]); err != nil {
					return err
				}
			case k < 90:
				if _, err := cl.Stats(j.projects[rng.Intn(len(j.projects))].project.ID); err != nil {
					return err
				}
			default:
				w := workers[rng.Intn(len(workers))]
				t, err := cl.RequestTask(j.projects[rng.Intn(len(j.projects))].project.ID, w)
				if errors.Is(err, platform.ErrNoTask) {
					continue
				}
				if err != nil {
					return err
				}
				if _, err := cl.Submit(t.ID, w, "No"); err == nil {
					accepted[g]++
				} else if !expected(err) {
					return err
				}
			}
		}
		return nil
	})
	total := 0
	for _, a := range accepted {
		total += a
	}
	j.writes += total
	return total, err
}

func (j *mixJob) rerun(r *run, rec *recorder) error {
	cl := r.ctl.meter(rec, "client")
	if j.answers == "" {
		var err error
		if j.answers, _, err = answerDigest(r.ctl.api, j.projects); err != nil {
			return err
		}
	}
	return platformRerun(r, cl, j.projects, j.answers)
}

func (j *mixJob) readable() (tasks, projects []int64, err error) { return allIDs(j.projects) }

func (j *mixJob) check(r *run) {
	tasks, runs, _ := r.leaderTotals()
	want := len(j.order)*preAnswers + j.writes
	if tasks != len(j.order) || runs != want {
		r.failf("leaders hold %d tasks and %d runs, want %d and %d", tasks, runs, len(j.order), want)
	}
	if j.writes == 0 {
		r.failf("the mix accepted no writes")
	}
}
