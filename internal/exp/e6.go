package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/quality"
	"repro/internal/simdata"
)

// E6QualitySweep compares the quality-control component's algorithms (the
// paper's "number of widely used techniques") on a mixed-reliability crowd
// across redundancy levels, SQUARE-benchmark style.
func E6QualitySweep(cfg Config) (Result, error) {
	n := 300
	reds := []int{1, 3, 5, 7}
	if cfg.Quick {
		n = 40
		reds = []int{1, 3}
	}

	res := Result{
		ID:      "E6",
		Title:   "quality control — accuracy vs redundancy under a mixed crowd (2 experts 0.95, 3 workers 0.75, 2 spammers)",
		Headers: []string{"redundancy", "answers", "mv", "wmv(gold)", "dawid-skene", "glad", "gold+mv"},
	}

	for _, r := range reds {
		e, err := newEnv()
		if err != nil {
			return res, err
		}
		// Gold items: first 10% of the table, truth known to the
		// experimenter.
		images := simdata.Images(cfg.Seed+int64(r), n)
		objects := imagesAsObjects(images)
		cd, err := e.cc.CrowdData(objects, fmt.Sprintf("qc_r%d", r))
		if err != nil {
			e.close()
			return res, err
		}
		cd.SetPresenter(core.ImageLabel("Match?"))
		if _, err := cd.Publish(core.PublishOptions{Redundancy: r}); err != nil {
			e.close()
			return res, err
		}
		pid, err := cd.ProjectID()
		if err != nil {
			e.close()
			return res, err
		}
		pool := crowd.NewPool(cfg.Seed, e.clock,
			crowd.Spec{Count: 2, Model: crowd.Uniform{P: 0.95}, Prefix: "expert"},
			crowd.Spec{Count: 3, Model: crowd.Uniform{P: 0.75}, Prefix: "avg"},
			crowd.Spec{Count: 2, Model: crowd.Spammer{}, Prefix: "spam"},
		)
		if _, err := pool.Drain(e.engine, pid, labelOracle); err != nil {
			e.close()
			return res, err
		}
		if _, err := cd.Collect(); err != nil {
			e.close()
			return res, err
		}

		votes := cd.Votes()
		truth := map[string]string{}
		gold := map[string]string{}
		for i, row := range cd.Rows() {
			truth[row.Key] = row.Object["truth"]
			if i < n/10 {
				gold[row.Key] = row.Object["truth"]
			}
		}
		answers := 0
		for _, vs := range votes {
			answers += len(vs)
		}

		score := func(agg quality.Aggregator) string {
			dec := agg.Aggregate(votes)
			correct, total := 0, 0
			for item, tr := range truth {
				if _, isGold := gold[item]; isGold {
					continue // score only non-gold items, same set for all
				}
				total++
				if d, ok := dec[item]; ok && d.Value == tr {
					correct++
				}
			}
			if total == 0 {
				return "-"
			}
			return ftoa(float64(correct) / float64(total))
		}

		goldWeights := quality.EstimateWeights(gold, votes, 0.5)
		row := []string{
			itoa(r),
			itoa(answers),
			score(quality.MajorityVote{}),
			score(goldWeights),
			score(quality.DawidSkene{}),
			score(quality.GLAD{Positive: "Yes", Negative: "No"}),
			score(quality.GoldFiltered{Gold: gold, MinAccuracy: 0.6}),
		}
		res.Rows = append(res.Rows, row)
		e.close()
	}
	res.Notes = append(res.Notes,
		"shape: accuracy rises with redundancy; model-based methods (DS/GLAD) and gold filtering beat plain MV under spam",
		"gold items (10% of table) are excluded from scoring for all methods")
	return res, nil
}
