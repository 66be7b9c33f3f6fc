package exp

import (
	"fmt"

	"repro/internal/crowd"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/simdata"
)

// E9SortMax evaluates the sort and max operators: rank quality versus the
// comparison budget, and tournament max success probability versus vote
// redundancy.
func E9SortMax(cfg Config) (Result, error) {
	m := 20
	seeds := []int64{1, 2, 3, 4, 5}
	if cfg.Quick {
		m = 8
		seeds = []int64{1, 2}
	}

	res := Result{
		ID:      "E9",
		Title:   "sort & max operators — quality vs comparison budget (worker accuracy 0.8)",
		Headers: []string{"operator", "config", "comparisons", "answers", "quality"},
	}

	list := simdata.SortItems(cfg.Seed, m)
	items := make([]ops.Item, 0, m)
	for _, it := range list.Items {
		items = append(items, ops.Item{ID: it.ID, Label: it.Label})
	}
	full := m * (m - 1) / 2

	// Sort: budget sweep.
	for _, frac := range []float64{1.0, 0.5, 0.25} {
		budget := int(float64(full) * frac)
		var taus []float64
		var tasks, answers int
		for _, seed := range seeds {
			e, err := newEnv()
			if err != nil {
				return res, err
			}
			pool := crowd.NewPool(seed, e.clock, crowd.Spec{Count: 5, Model: crowd.Uniform{P: 0.8}, Prefix: "w"})
			sr, err := ops.CrowdSort(e.cc, items, ops.SortConfig{
				Table:      "rank",
				Redundancy: 3,
				Budget:     budget,
				Seed:       seed,
				Answer:     ops.PoolAnswerer(e.engine, pool, ops.CompareOracle(list.ScoreOf())),
			})
			e.close()
			if err != nil {
				return res, err
			}
			taus = append(taus, metrics.KendallTau(sr.Order, list.TrueOrder))
			tasks, answers = sr.Cost.Tasks, sr.Cost.Answers
		}
		res.Rows = append(res.Rows, []string{
			"sort", fmt.Sprintf("budget=%.0f%%", frac*100), itoa(tasks), itoa(answers),
			fmt.Sprintf("tau=%.3f", metrics.Mean(taus)),
		})
	}

	// Max: redundancy sweep, success probability over seeds.
	for _, r := range []int{1, 3, 5} {
		wins := 0
		var tasks, answers int
		for _, seed := range seeds {
			e, err := newEnv()
			if err != nil {
				return res, err
			}
			pool := crowd.NewPool(seed, e.clock, crowd.Spec{Count: 5, Model: crowd.Uniform{P: 0.8}, Prefix: "w"})
			mr, err := ops.CrowdMax(e.cc, items, ops.MaxConfig{
				Table:      "champ",
				Redundancy: r,
				Answer:     ops.PoolAnswerer(e.engine, pool, ops.CompareOracle(list.ScoreOf())),
			})
			e.close()
			if err != nil {
				return res, err
			}
			if mr.Winner == list.TrueOrder[0] {
				wins++
			}
			tasks, answers = mr.Cost.Tasks, mr.Cost.Answers
		}
		res.Rows = append(res.Rows, []string{
			"max", fmt.Sprintf("redundancy=%d", r), itoa(tasks), itoa(answers),
			fmt.Sprintf("P[correct]=%.2f", float64(wins)/float64(len(seeds))),
		})
	}
	res.Notes = append(res.Notes,
		"shape: sort quality degrades gracefully with smaller budgets; max success rises with redundancy at n-1 comparisons")
	return res, nil
}
