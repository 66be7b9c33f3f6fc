package exp

import (
	"fmt"

	"repro/internal/crowd"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/simdata"
)

// erRecords builds the operator inputs from a generated corpus.
func erRecords(corpus simdata.ERCorpus) []ops.Record {
	out := make([]ops.Record, 0, len(corpus.Records))
	for _, r := range corpus.Records {
		out = append(out, ops.Record{ID: r.ID, Fields: r.Fields})
	}
	return out
}

// E4CrowdERSweep reproduces the CrowdER claim: the hybrid human–machine
// join asks the crowd a small fraction of all pairs at comparable quality,
// and cluster tasks cut the task count further. Sweeps the similarity
// threshold τ.
func E4CrowdERSweep(cfg Config) (Result, error) {
	entities, workers := 60, 7
	if cfg.Quick {
		entities, workers = 12, 5
	}
	corpus := simdata.Restaurants(simdata.ERConfig{
		Seed: cfg.Seed, Entities: entities, DupProb: 0.5, MaxDups: 2, NoiseOps: 2,
	})
	records := erRecords(corpus)

	res := Result{
		ID:      "E4",
		Title:   "CrowdER hybrid join — crowd cost vs threshold (Wang et al. 2012 claim)",
		Headers: []string{"method", "tau", "candidates", "crowd pairs", "crowd tasks", "answers", "P", "R", "F1"},
	}

	addRow := func(method, tau string, r ops.JoinResult) {
		q := metrics.PairQuality(r.Matches, corpus.Matches)
		res.Rows = append(res.Rows, []string{
			method, tau, itoa(r.CandidatePairs), itoa(r.CrowdPairs), itoa(r.CrowdTasks),
			itoa(r.Cost.Answers), ftoa(q.Precision), ftoa(q.Recall), ftoa(q.F1),
		})
	}

	// Baseline: all pairs to the crowd.
	{
		e, err := newEnv()
		if err != nil {
			return res, err
		}
		pool := crowd.NewPool(cfg.Seed, e.clock, crowd.Spec{Count: workers, Model: crowd.Uniform{P: 0.9}, Prefix: "w"})
		all, err := ops.AllPairsJoin(e.cc, records, ops.JoinConfig{
			Table: "er", Redundancy: 3,
			Answer: ops.PoolAnswerer(e.engine, pool, ops.PairOracle(corpus.Matches)),
		})
		e.close()
		if err != nil {
			return res, err
		}
		addRow("all-pairs", "-", all)
	}

	taus := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	if cfg.Quick {
		taus = []float64{0.3, 0.5}
	}
	for _, tau := range taus {
		e, err := newEnv()
		if err != nil {
			return res, err
		}
		pool := crowd.NewPool(cfg.Seed, e.clock, crowd.Spec{Count: workers, Model: crowd.Uniform{P: 0.9}, Prefix: "w"})
		hyb, err := ops.HybridJoin(e.cc, records, ops.HybridConfig{
			JoinConfig: ops.JoinConfig{
				Table: "er", Redundancy: 3,
				Answer: ops.PoolAnswerer(e.engine, pool, ops.PairOracle(corpus.Matches)),
			},
			Threshold: tau,
		})
		e.close()
		if err != nil {
			return res, err
		}
		addRow("hybrid", ftoa(tau), hyb)
	}

	// Cluster tasks at a mid threshold.
	{
		e, err := newEnv()
		if err != nil {
			return res, err
		}
		pool := crowd.NewPool(cfg.Seed, e.clock, crowd.Spec{Count: workers, Model: ops.ClusterWorkerModel{P: 0.9}, Prefix: "cw"})
		cl, err := ops.HybridJoin(e.cc, records, ops.HybridConfig{
			JoinConfig: ops.JoinConfig{
				Table: "er", Redundancy: 3,
				Answer: ops.PoolAnswerer(e.engine, pool, ops.ClusterOracle(corpus.Matches)),
			},
			Threshold:      0.4,
			ClusterTasks:   true,
			MaxClusterSize: 5,
		})
		e.close()
		if err != nil {
			return res, err
		}
		addRow("hybrid+cluster", "0.400", cl)
	}

	res.Notes = append(res.Notes,
		"shape to match the paper: hybrid crowd pairs ≪ all-pairs at comparable F1; cluster tasks < pair tasks",
		fmt.Sprintf("corpus: %d records, %d true matches", len(records), len(corpus.Matches)))
	return res, nil
}

// E5TransitiveJoin reproduces the SIGMOD'13 claim: exploiting transitivity
// answers many pairs for free, and the examination order controls how many.
func E5TransitiveJoin(cfg Config) (Result, error) {
	entities, workers := 40, 5
	if cfg.Quick {
		entities, workers = 12, 3
	}
	corpus := simdata.Restaurants(simdata.ERConfig{
		Seed: cfg.Seed, Entities: entities, DupProb: 0.8, MaxDups: 3, NoiseOps: 2,
	})
	records := erRecords(corpus)

	res := Result{
		ID:      "E5",
		Title:   "transitivity-aware join — questions saved by deduction and ordering (Wang et al. 2013 claim)",
		Headers: []string{"method", "order", "candidates", "asked", "deduced", "answers", "P", "R", "F1"},
	}

	// Baseline without transitivity.
	{
		e, err := newEnv()
		if err != nil {
			return res, err
		}
		pool := crowd.NewPool(cfg.Seed, e.clock, crowd.Spec{Count: workers, Model: crowd.Uniform{P: 0.95}, Prefix: "w"})
		hyb, err := ops.HybridJoin(e.cc, records, ops.HybridConfig{
			JoinConfig: ops.JoinConfig{
				Table: "er", Redundancy: 3,
				Answer: ops.PoolAnswerer(e.engine, pool, ops.PairOracle(corpus.Matches)),
			},
			Threshold: 0.3,
		})
		e.close()
		if err != nil {
			return res, err
		}
		q := metrics.PairQuality(hyb.Matches, corpus.Matches)
		res.Rows = append(res.Rows, []string{
			"no-transitivity", "-", itoa(hyb.CandidatePairs), itoa(hyb.CrowdPairs), "0",
			itoa(hyb.Cost.Answers), ftoa(q.Precision), ftoa(q.Recall), ftoa(q.F1),
		})
	}

	for _, order := range []ops.Order{ops.OrderRandom, ops.OrderSimilarityDesc, ops.OrderExpectedSavings} {
		e, err := newEnv()
		if err != nil {
			return res, err
		}
		pool := crowd.NewPool(cfg.Seed, e.clock, crowd.Spec{Count: workers, Model: crowd.Uniform{P: 0.95}, Prefix: "w"})
		tr, err := ops.TransitiveJoin(e.cc, records, ops.TransitiveConfig{
			JoinConfig: ops.JoinConfig{
				Table: "er", Redundancy: 3,
				Answer: ops.PoolAnswerer(e.engine, pool, ops.PairOracle(corpus.Matches)),
			},
			Threshold: 0.3,
			Order:     order,
			Seed:      cfg.Seed,
		})
		e.close()
		if err != nil {
			return res, err
		}
		q := metrics.PairQuality(tr.Matches, corpus.Matches)
		res.Rows = append(res.Rows, []string{
			"transitive", string(order), itoa(tr.CandidatePairs), itoa(tr.CrowdPairs), itoa(tr.DeducedPairs),
			itoa(tr.Cost.Answers), ftoa(q.Precision), ftoa(q.Recall), ftoa(q.F1),
		})
	}
	res.Notes = append(res.Notes,
		"shape to match the paper: transitive < no-transitivity questions; informed orders ≤ random",
		fmt.Sprintf("corpus: %d records, %d true matches, clusters up to 4", len(records), len(corpus.Matches)))
	return res, nil
}
