package exp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/lineage"
	"repro/internal/simdata"
)

// imagesAsObjects converts generated images to CrowdData objects carrying
// the hidden truth (visible only to the simulated workers' oracle).
func imagesAsObjects(imgs []simdata.Image) []core.Object {
	out := make([]core.Object, 0, len(imgs))
	for _, img := range imgs {
		out = append(out, core.Object{"url": img.URL, "truth": img.Truth})
	}
	return out
}

// runQuickstart executes the Figure 2 pipeline on an environment: publish,
// drain, collect, majority vote. It returns the mv accuracy.
func runQuickstart(e *env, objects []core.Object, table string, red, workers int, acc float64, seed int64) (float64, error) {
	cd, err := e.cc.CrowdData(objects, table)
	if err != nil {
		return 0, err
	}
	cd.SetPresenter(core.ImageLabel("Does the image match the label?"))
	if _, err := cd.Publish(core.PublishOptions{Redundancy: red}); err != nil {
		return 0, err
	}
	pid, err := cd.ProjectID()
	if err != nil {
		return 0, err
	}
	pool := crowd.NewPool(seed, e.clock, crowd.Spec{Count: workers, Model: crowd.Uniform{P: acc}, Prefix: "w"})
	if _, err := pool.Drain(e.engine, pid, labelOracle); err != nil {
		return 0, err
	}
	if _, err := cd.Collect(); err != nil {
		return 0, err
	}
	if err := cd.MajorityVote("mv"); err != nil {
		return 0, err
	}
	correct := 0
	for _, row := range cd.Rows() {
		if row.Value("mv") == row.Object["truth"] {
			correct++
		}
	}
	return float64(correct) / float64(len(objects)), nil
}

// E1Quickstart reproduces Figure 2 (Bob's experiment) and measures the
// sharable claim: a rerun costs zero crowd work and reproduces the output.
func E1Quickstart(cfg Config) (Result, error) {
	n := 50
	if cfg.Quick {
		n = 6
	}
	e, err := newEnv()
	if err != nil {
		return Result{}, err
	}
	defer e.close()

	objects := imagesAsObjects(simdata.Images(cfg.Seed, n))

	fresh := time.Now()
	acc, err := runQuickstart(e, objects, "quickstart", 3, 7, 0.8, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	freshWall := time.Since(fresh)
	pid := mustProject(e, "reprowd-quickstart")
	stFresh, _ := e.engine.Stats(pid)

	// Rerun the identical program (same db, same platform).
	rerun := time.Now()
	acc2, err := runQuickstart(e, objects, "quickstart", 3, 7, 0.8, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	rerunWall := time.Since(rerun)
	stRerun, _ := e.engine.Stats(pid)

	res := Result{
		ID:      "E1",
		Title:   "Figure 2 quickstart — fresh run vs cached rerun (sharable)",
		Headers: []string{"phase", "images", "platform tasks", "answers", "mv accuracy", "wall time"},
		Rows: [][]string{
			{"fresh", itoa(n), itoa(stFresh.Tasks), itoa(stFresh.TaskRuns), ftoa(acc), freshWall.Round(time.Microsecond).String()},
			{"rerun", itoa(n), itoa(stRerun.Tasks - stFresh.Tasks), itoa(stRerun.TaskRuns - stFresh.TaskRuns), ftoa(acc2), rerunWall.Round(time.Microsecond).String()},
		},
	}
	if stRerun.Tasks != stFresh.Tasks || stRerun.TaskRuns != stFresh.TaskRuns {
		res.Notes = append(res.Notes, "FAIL: rerun touched the platform")
	} else {
		res.Notes = append(res.Notes, "paper claim holds: rerun republished 0 tasks and re-collected 0 answers")
	}
	if acc != acc2 {
		res.Notes = append(res.Notes, "FAIL: rerun changed the output")
	}
	return res, nil
}

// E2ExtendLineage reproduces Figure 3 (Ally's examination): extending the
// table publishes only the delta, and the lineage queries of Lines 11–16
// are answerable.
func E2ExtendLineage(cfg Config) (Result, error) {
	n := 30
	if cfg.Quick {
		n = 4
	}
	e, err := newEnv()
	if err != nil {
		return Result{}, err
	}
	defer e.close()

	all := imagesAsObjects(simdata.Images(cfg.Seed, 2*n))
	bob, ally := all[:n], all[n:]

	if _, err := runQuickstart(e, bob, "exp", 3, 7, 0.85, cfg.Seed); err != nil {
		return Result{}, err
	}
	pid := mustProject(e, "reprowd-exp")
	stBob, _ := e.engine.Stats(pid)

	// Ally: rebuild the table, extend, publish (delta only), drain, collect.
	cd, err := e.cc.CrowdData(bob, "exp")
	if err != nil {
		return Result{}, err
	}
	cd.SetPresenter(core.ImageLabel("Does the image match the label?"))
	added, err := cd.Extend(ally)
	if err != nil {
		return Result{}, err
	}
	published, err := cd.Publish(core.PublishOptions{Redundancy: 3})
	if err != nil {
		return Result{}, err
	}
	pool := crowd.NewPool(cfg.Seed+1, e.clock, crowd.Spec{Count: 7, Model: crowd.Uniform{P: 0.85}, Prefix: "w"})
	if _, err := pool.Drain(e.engine, pid, labelOracle); err != nil {
		return Result{}, err
	}
	if _, err := cd.Collect(); err != nil {
		return Result{}, err
	}
	stAlly, _ := e.engine.Stats(pid)

	rep, err := lineage.Summarize(e.cc, cd)
	if err != nil {
		return Result{}, err
	}
	firstRow, err := lineage.OfRow(cd.Rows()[0])
	if err != nil {
		return Result{}, err
	}

	res := Result{
		ID:      "E2",
		Title:   "Figure 3 extension + lineage (examinable)",
		Headers: []string{"phase", "rows", "new tasks published", "total answers", "distinct workers"},
		Rows: [][]string{
			{"bob", itoa(n), itoa(stBob.Tasks), itoa(stBob.TaskRuns), itoa(stBob.Workers)},
			{"ally extends", itoa(n + added), itoa(published), itoa(stAlly.TaskRuns), itoa(stAlly.Workers)},
		},
		Notes: []string{
			fmt.Sprintf("lineage(line 11-16): row %s published at %s via %q, first answer by %s at %s",
				firstRow.Key, firstRow.PublishedAt.Format("15:04:05.000"), firstRow.Presenter,
				firstRow.Answers[0].Worker, firstRow.Answers[0].SubmittedAt.Format("15:04:05.000")),
			fmt.Sprintf("op log: %d entries (%s)", len(rep.Ops), opKinds(rep.Ops)),
		},
	}
	if published != added {
		res.Notes = append(res.Notes, "FAIL: extension republished cached rows")
	} else {
		res.Notes = append(res.Notes, "paper claim holds: only the delta was published")
	}
	return res, nil
}

func opKinds(ops []core.OpLogEntry) string {
	out := ""
	for i, op := range ops {
		if i > 0 {
			out += ","
		}
		out += op.Op
	}
	return out
}

// E3CrashRerun kills the Figure 2 pipeline after every step and reruns the
// whole program, verifying output equality and zero duplicate crowd work —
// the fault-recovery guarantee.
func E3CrashRerun(cfg Config) (Result, error) {
	n := 20
	if cfg.Quick {
		n = 4
	}
	res := Result{
		ID:      "E3",
		Title:   "crash-and-rerun fault injection (sharable guarantee)",
		Headers: []string{"crash point", "rerun equals control", "platform tasks", "platform answers"},
	}

	type step struct {
		name string
		run  func(e *env, cd *core.CrowdData, pool *crowd.Pool) error
	}
	steps := []step{
		{"after publish", func(e *env, cd *core.CrowdData, pool *crowd.Pool) error {
			_, err := cd.Publish(core.PublishOptions{Redundancy: 3})
			return err
		}},
		{"after drain", func(e *env, cd *core.CrowdData, pool *crowd.Pool) error {
			pid, err := cd.ProjectID()
			if err != nil {
				return err
			}
			_, err = pool.Drain(e.engine, pid, labelOracle)
			return err
		}},
		{"after collect", func(e *env, cd *core.CrowdData, pool *crowd.Pool) error {
			_, err := cd.Collect()
			return err
		}},
		{"after mv", func(e *env, cd *core.CrowdData, pool *crowd.Pool) error {
			return cd.MajorityVote("mv")
		}},
	}

	runAll := func(e *env, objects []core.Object, upTo int) (string, error) {
		cd, err := e.cc.CrowdData(objects, "exp")
		if err != nil {
			return "", err
		}
		cd.SetPresenter(core.ImageLabel("Match?"))
		pool := crowd.NewPool(cfg.Seed, e.clock, crowd.Spec{Count: 5, Model: crowd.Uniform{P: 0.8}, Prefix: "w"})
		for i := 0; i <= upTo && i < len(steps); i++ {
			if err := steps[i].run(e, cd, pool); err != nil {
				return "", err
			}
		}
		return mvSnapshot(cd), nil
	}

	objects := imagesAsObjects(simdata.Images(cfg.Seed, n))

	// Control.
	ctl, err := newEnv()
	if err != nil {
		return res, err
	}
	want, err := runAll(ctl, objects, len(steps)-1)
	ctl.close()
	if err != nil {
		return res, err
	}

	for k := range steps {
		e, err := newEnv()
		if err != nil {
			return res, err
		}
		if _, err := runAll(e, objects, k); err != nil { // run to crash point
			e.close()
			return res, err
		}
		got, err := runAll(e, objects, len(steps)-1) // full rerun
		if err != nil {
			e.close()
			return res, err
		}
		pid := mustProject(e, "reprowd-exp")
		st, _ := e.engine.Stats(pid)
		equal := "yes"
		if got != want {
			equal = "NO"
			res.Notes = append(res.Notes, fmt.Sprintf("FAIL at %q", steps[k].name))
		}
		res.Rows = append(res.Rows, []string{steps[k].name, equal, itoa(st.Tasks), itoa(st.TaskRuns)})
		e.close()
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("expected per run: %d tasks, %d answers; any surplus means duplicated crowd work", n, n*3))
	return res, nil
}

func mvSnapshot(cd *core.CrowdData) string {
	out := ""
	for _, row := range cd.Rows() {
		out += row.Key + "=" + row.Value("mv") + ";"
	}
	return out
}

func mustProject(e *env, name string) int64 {
	p, ok, _ := e.engine.FindProject(name)
	if !ok {
		return -1
	}
	return p.ID
}
