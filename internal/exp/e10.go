package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/simdata"
	"repro/internal/storage"
	"repro/internal/turkit"
)

// E10Turkit quantifies the paper's argument against TurKit's call-order-
// keyed cache: under program edits (swapping steps, inserting a step),
// TurKit either silently returns wrong answers (naive positional lookup)
// or re-asks the crowd (strict invalidation), while Reprowd's
// (table, key)-keyed cache reuses everything and stays correct.
func E10Turkit(cfg Config) (Result, error) {
	res := Result{
		ID:      "E10",
		Title:   "cache keying ablation — TurKit sequence cache vs Reprowd table cache under program edits",
		Headers: []string{"system", "edit", "crowd calls on rerun", "output correct"},
	}

	steps := []string{"label-cats", "label-dogs", "label-birds"}
	answerFor := func(name string) string { return "answer-" + name }

	// --- TurKit variants -------------------------------------------------
	runTurkit := func(mode turkit.Mode, order []string) (calls int, correct bool, err error) {
		dir, err := mkTemp()
		if err != nil {
			return 0, false, err
		}
		defer rmTemp(dir)
		db, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
		if err != nil {
			return 0, false, err
		}
		defer db.Close()

		// First run, original order.
		s := turkit.NewScript(db, "exp", mode)
		for _, name := range steps {
			if _, err := s.Once(name, func() (string, error) { return answerFor(name), nil }); err != nil {
				return 0, false, err
			}
		}
		// Second run, edited order.
		s2 := turkit.NewScript(db, "exp", mode)
		correct = true
		for _, name := range order {
			name := name
			got, err := s2.Once(name, func() (string, error) { return answerFor(name), nil })
			if err != nil {
				return 0, false, err
			}
			if got != answerFor(name) {
				correct = false
			}
		}
		return s2.Executions, correct, nil
	}

	// --- Reprowd ----------------------------------------------------------
	// Each "step" labels its own image set in its own table; the edit
	// changes only the order (or set) of manipulations.
	runReprowd := func(order []string) (calls int, correct bool, err error) {
		e, err := newEnv()
		if err != nil {
			return 0, false, err
		}
		defer e.close()

		tables := map[string][]core.Object{}
		for i, name := range append(append([]string{}, steps...), "label-fish") {
			tables[name] = imagesAsObjects(simdata.Images(cfg.Seed+int64(i), 4))
		}
		runStep := func(name string) (bool, error) {
			cd, err := e.cc.CrowdData(tables[name], name)
			if err != nil {
				return false, err
			}
			cd.SetPresenter(core.ImageLabel("Match?"))
			if _, err := cd.Publish(core.PublishOptions{Redundancy: 3}); err != nil {
				return false, err
			}
			pid, err := cd.ProjectID()
			if err != nil {
				return false, err
			}
			pool := crowd.NewPool(cfg.Seed, e.clock, crowd.Spec{Count: 3, Model: crowd.Perfect{}, Prefix: "w"})
			if _, err := pool.Drain(e.engine, pid, labelOracle); err != nil {
				return false, err
			}
			if _, err := cd.Collect(); err != nil {
				return false, err
			}
			if err := cd.MajorityVote("mv"); err != nil {
				return false, err
			}
			for _, row := range cd.Rows() {
				if row.Value("mv") != row.Object["truth"] {
					return false, nil
				}
			}
			return true, nil
		}

		// First run, original order.
		for _, name := range steps {
			if _, err := runStep(name); err != nil {
				return 0, false, err
			}
		}
		before := platformAnswers(e)
		// Second run, edited order.
		correct = true
		for _, name := range order {
			ok, err := runStep(name)
			if err != nil {
				return 0, false, err
			}
			if !ok {
				correct = false
			}
		}
		return platformAnswers(e) - before, correct, nil
	}

	edits := []struct {
		name  string
		order []string
	}{
		{"none (plain rerun)", []string{"label-cats", "label-dogs", "label-birds"}},
		{"swap steps 1,2", []string{"label-dogs", "label-cats", "label-birds"}},
		{"insert new step", []string{"label-cats", "label-fish", "label-dogs", "label-birds"}},
	}

	for _, edit := range edits {
		for _, sys := range []struct {
			name string
			run  func() (int, bool, error)
		}{
			{"turkit-naive", func() (int, bool, error) {
				// The inserted step in TurKit-land is a new Once call.
				return runTurkit(turkit.ModeNaive, edit.order)
			}},
			{"turkit-strict", func() (int, bool, error) {
				return runTurkit(turkit.ModeStrict, edit.order)
			}},
			{"reprowd", func() (int, bool, error) {
				return runReprowd(edit.order)
			}},
		} {
			calls, correct, err := sys.run()
			if err != nil {
				return res, fmt.Errorf("%s/%s: %w", sys.name, edit.name, err)
			}
			ok := "yes"
			if !correct {
				ok = "NO (silent wrong answers)"
			}
			// For reprowd the inserted step legitimately costs crowd
			// work (it is genuinely new data); the point is that the
			// OLD steps stay cached.
			res.Rows = append(res.Rows, []string{sys.name, edit.name, itoa(calls), ok})
		}
	}

	res.Notes = append(res.Notes,
		"paper claim: TurKit's order-keyed cache breaks under edits — naive mode returns wrong answers for free, strict mode pays the crowd again; Reprowd reuses its (table,key) cache and only pays for genuinely new data",
		"reprowd's 'insert new step' cost covers only the new step's 4 tasks × 3 answers = 12 answers")
	return res, nil
}

func platformAnswers(e *env) int {
	total := 0
	for _, p := range e.engine.Projects() {
		st, err := e.engine.Stats(p.ID)
		if err == nil {
			total += st.TaskRuns
		}
	}
	return total
}
