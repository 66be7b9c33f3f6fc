package ops

import (
	"testing"

	"repro/internal/crowd"
	"repro/internal/simdata"
)

// Ablation A3 support: operator cost at benchmark scale. The interesting
// numbers (crowd pairs, deduction rates) come from experiments E4/E5
// (docs/ARCHITECTURE.md § "Experiments and gates"); these measure the
// orchestration overhead of running the operators end to end on the
// simulated stack.

func benchCorpusRecords(entities int) ([]Record, simdata.ERCorpus) {
	corpus := simdata.Restaurants(simdata.ERConfig{
		Seed: 1, Entities: entities, DupProb: 0.5, MaxDups: 2, NoiseOps: 2,
	})
	records := make([]Record, 0, len(corpus.Records))
	for _, r := range corpus.Records {
		records = append(records, Record{ID: r.ID, Fields: r.Fields})
	}
	return records, corpus
}

func BenchmarkHybridJoin_40Entities(b *testing.B) {
	records, corpus := benchCorpusRecords(40)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := newOpsEnv(b, 2, 0) // corpus unused; env provides cc/engine
		pool := crowd.NewPool(7, e.clock, crowd.Spec{Count: 5, Model: crowd.Uniform{P: 0.9}, Prefix: "w"})
		b.StartTimer()
		res, err := HybridJoin(e.cc, records, HybridConfig{
			JoinConfig: JoinConfig{
				Table: "er", Redundancy: 3,
				Answer: PoolAnswerer(e.engine, pool, PairOracle(corpus.Matches)),
			},
			Threshold: 0.4,
		})
		if err != nil || len(res.Matches) == 0 {
			b.Fatal(res, err)
		}
	}
}

func BenchmarkTransitiveJoin_40Entities(b *testing.B) {
	records, corpus := benchCorpusRecords(40)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := newOpsEnv(b, 2, 0)
		pool := crowd.NewPool(7, e.clock, crowd.Spec{Count: 5, Model: crowd.Uniform{P: 0.9}, Prefix: "w"})
		b.StartTimer()
		res, err := TransitiveJoin(e.cc, records, TransitiveConfig{
			JoinConfig: JoinConfig{
				Table: "er", Redundancy: 3,
				Answer: PoolAnswerer(e.engine, pool, PairOracle(corpus.Matches)),
			},
			Threshold: 0.4,
			Order:     OrderSimilarityDesc,
		})
		if err != nil || len(res.Matches) == 0 {
			b.Fatal(res, err)
		}
	}
}

func BenchmarkMachinePass_100Records(b *testing.B) {
	records, _ := benchCorpusRecords(70) // ≈100 records with dupes
	cfg := HybridConfig{Threshold: 0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, pruned := machinePass(records, cfg)
		if len(cands)+pruned == 0 {
			b.Fatal("no pairs")
		}
	}
}

func BenchmarkCrowdSort_15Items(b *testing.B) {
	list := simdata.SortItems(3, 15)
	items := make([]Item, 0, 15)
	for _, it := range list.Items {
		items = append(items, Item{ID: it.ID, Label: it.Label})
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := newOpsEnv(b, 2, 0)
		pool := crowd.NewPool(3, e.clock, crowd.Spec{Count: 5, Model: crowd.Perfect{}, Prefix: "w"})
		b.StartTimer()
		res, err := CrowdSort(e.cc, items, SortConfig{
			Table: "rank", Redundancy: 3,
			Answer: PoolAnswerer(e.engine, pool, CompareOracle(list.ScoreOf())),
		})
		if err != nil || len(res.Order) != 15 {
			b.Fatal(res, err)
		}
	}
}
