package distops

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/platform"
	"repro/internal/quality"
	"repro/internal/repl"
	"repro/internal/similarity"
	"repro/internal/vclock"
)

// testRecords builds a small corpus with planted duplicates: rec-i and
// dup-i share a name, everything else is distinct.
func testRecords(n int) ([]ops.Record, map[string]bool) {
	var records []ops.Record
	truth := map[string]bool{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("record number %03d with some text", i)
		records = append(records, ops.Record{ID: fmt.Sprintf("rec-%03d", i), Fields: map[string]string{"name": name}})
		if i%3 == 0 {
			records = append(records, ops.Record{ID: fmt.Sprintf("dup-%03d", i), Fields: map[string]string{"name": name + "!"}})
			truth[metrics.PairKey(fmt.Sprintf("rec-%03d", i), fmt.Sprintf("dup-%03d", i))] = true
		}
	}
	return records, truth
}

// detAnswer answers a pair task deterministically: the truth, flipped
// for ~errPct% of (worker, item) combinations via FNV.
func detAnswer(worker, item, truth string, errPct uint64) string {
	h := fnv.New64a()
	h.Write([]byte(worker + "|" + item))
	ans := truth
	if h.Sum64()%100 < errPct {
		if ans == "Yes" {
			ans = "No"
		} else {
			ans = "Yes"
		}
	}
	return ans
}

// driveShard makes `workers` deterministic workers answer every task of
// one shard through the client.
func driveShard(client platform.Client, sr ShardRun, workers int, truth map[string]bool, errPct uint64) error {
	for w := 0; w < workers; w++ {
		id := fmt.Sprintf("w-%d", w)
		for {
			task, err := client.RequestTask(sr.ProjectID, id)
			if errors.Is(err, platform.ErrNoTask) {
				break
			}
			if err != nil {
				return err
			}
			item := ops.PairRowID(task.Payload["id_a"], task.Payload["id_b"])
			want := "No"
			if truth[metrics.PairKey(task.Payload["id_a"], task.Payload["id_b"])] {
				want = "Yes"
			}
			if _, err := client.Submit(task.ID, id, detAnswer(id, item, want, errPct)); err != nil {
				return err
			}
		}
	}
	return nil
}

func newTestContext(t *testing.T, client platform.Client) *core.CrowdContext {
	t.Helper()
	cc, err := core.NewContext(core.Options{DBDir: t.TempDir(), Client: client, Clock: vclock.NewVirtual()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc
}

func TestCrowdJoinEndToEnd(t *testing.T) {
	records, truth := testRecords(40)
	pairs, err := ops.TopPairs(records, 120, similarity.Measure{})
	if err != nil {
		t.Fatal(err)
	}
	engine := platform.NewEngine(vclock.NewVirtual())
	cc := newTestContext(t, engine)

	const workers = 3
	online := quality.NewOnlineDawidSkene(quality.DawidSkene{}, 32)
	var verdictMu sync.Mutex
	perPartition := map[string]int{}
	itemShard := map[string]string{}
	cfg := Config{
		Partitions: []string{"n1", "n2", "n3"},
		Table:      "distjoin",
		Redundancy: workers,
		BatchSize:  16,
		Quality:    online,
		OnVerdict: func(v Verdict) {
			verdictMu.Lock()
			perPartition[v.Partition]++
			if prev, ok := itemShard[v.Item]; ok && prev != v.Partition {
				t.Errorf("item %s streamed from two partitions: %s and %s", v.Item, prev, v.Partition)
			}
			itemShard[v.Item] = v.Partition
			verdictMu.Unlock()
		},
		Answer: func(sr ShardRun) error { return driveShard(engine, sr, workers, truth, 10) },
	}
	res, err := CrowdJoin(cc, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Every pair became exactly one task on exactly one shard.
	if res.Cost.Tasks != len(pairs) {
		t.Fatalf("tasks = %d, want %d", res.Cost.Tasks, len(pairs))
	}
	if res.Cost.Answers != len(pairs)*workers {
		t.Fatalf("answers = %d, want %d", res.Cost.Answers, len(pairs)*workers)
	}
	if len(res.Shards) < 2 {
		t.Fatalf("expected the plan to use at least 2 partitions, got %d", len(res.Shards))
	}
	totalRows := 0
	for _, sh := range res.Shards {
		totalRows += sh.Rows
		if sh.Tasks != sh.Rows {
			t.Fatalf("shard %s: %d tasks for %d rows", sh.Table, sh.Tasks, sh.Rows)
		}
	}
	if totalRows != len(pairs) {
		t.Fatalf("shards cover %d rows, want %d", totalRows, len(pairs))
	}
	if len(itemShard) != len(pairs) {
		t.Fatalf("streamed %d distinct items, want %d", len(itemShard), len(pairs))
	}
	if res.Streamed != len(pairs)*workers {
		t.Fatalf("streamed %d verdicts, want %d", res.Streamed, len(pairs)*workers)
	}

	// The incremental decisions must match a batch Dawid-Skene fit over
	// the same collected votes.
	batch := quality.DawidSkene{}.Fit(res.Votes)
	if len(batch.Decisions) != len(res.Decisions) {
		t.Fatalf("decision counts differ: dist %d batch %d", len(res.Decisions), len(batch.Decisions))
	}
	for item, bd := range batch.Decisions {
		if od := res.Decisions[item]; od.Value != bd.Value {
			t.Fatalf("item %s: incremental %q vs batch %q", item, od.Value, bd.Value)
		}
	}

	// With 3 accurate-ish workers the planted duplicates should be found.
	score := metrics.PairQuality(res.Matches, truth)
	if score.F1 < 0.9 {
		t.Fatalf("F1 = %.3f, want >= 0.9 (matches=%d truth=%d)", score.F1, len(res.Matches), len(truth))
	}

	// Cross-node lineage reconstructs the run from the database alone.
	rep, err := Lineage(cc, "distjoin")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != len(pairs) || rep.TotalAnswers != len(pairs)*workers {
		t.Fatalf("lineage rows/answers = %d/%d, want %d/%d", rep.Rows, rep.TotalAnswers, len(pairs), len(pairs)*workers)
	}
	if len(rep.Shards) != len(res.Shards) {
		t.Fatalf("lineage shards = %d, want %d", len(rep.Shards), len(res.Shards))
	}
	if len(rep.Workers) != workers {
		t.Fatalf("lineage workers = %d, want %d", len(rep.Workers), workers)
	}
	for _, sh := range rep.Shards {
		if sh.Partition == "" || sh.Report.Rows == 0 {
			t.Fatalf("degenerate shard lineage: %+v", sh)
		}
	}

	// Rerun: crash-and-rerun must republish nothing and reproduce the
	// same matches (batch path this time; decisions come out the same).
	rerunCfg := cfg
	rerunCfg.Quality = nil
	rerunCfg.Aggregator = quality.DawidSkene{}
	rerunCfg.OnVerdict = nil
	rerunCfg.Answer = func(sr ShardRun) error { return nil } // nothing left to answer
	res2, err := CrowdJoin(cc, pairs, rerunCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cost.Tasks != res.Cost.Tasks || res2.Cost.Answers != res.Cost.Answers {
		t.Fatalf("rerun cost %+v, first run %+v", res2.Cost, res.Cost)
	}
	requireSameMatches(t, "rerun", res2.Matches, res.Matches)
	if st := engine.PlatformStats(); st.Tasks != len(pairs) {
		t.Fatalf("engine holds %d tasks after rerun, want %d (no republish)", st.Tasks, len(pairs))
	}

	// Topology independence: the same pairs planned onto one partition of
	// a fresh platform, answered by the same deterministic workers and
	// resolved by a batch fit, land on the three-partition match set.
	engine1 := platform.NewEngine(vclock.NewVirtual())
	oneCfg := rerunCfg
	oneCfg.Partitions = []string{"s1"}
	oneCfg.Answer = func(sr ShardRun) error { return driveShard(engine1, sr, workers, truth, 10) }
	one, err := CrowdJoin(newTestContext(t, engine1), pairs, oneCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Shards) != 1 || one.Cost.Answers != res.Cost.Answers {
		t.Fatalf("1-partition run: %d shards, %d answers, want 1 and %d", len(one.Shards), one.Cost.Answers, res.Cost.Answers)
	}
	requireSameMatches(t, "1-partition plan", one.Matches, res.Matches)
}

func requireSameMatches(t *testing.T, what string, got, want map[string]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s found %d matches, want %d", what, len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("%s lost match %s", what, k)
		}
	}
}

func TestPlanShardsDeterministicAndRingConsistent(t *testing.T) {
	records, _ := testRecords(30)
	pairs, err := ops.TopPairs(records, 80, similarity.Measure{})
	if err != nil {
		t.Fatal(err)
	}
	objects := make([]core.Object, len(pairs))
	for i, sp := range pairs {
		objects[i] = ops.PairObject(sp.A, sp.B)
	}
	cfg := Config{Partitions: []string{"a", "b", "c", "d"}, Table: "plan"}
	keyOf := core.DefaultKey

	first, err := planShards(cfg, keyOf, objects)
	if err != nil {
		t.Fatal(err)
	}
	again, err := planShards(cfg, keyOf, objects)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(again) {
		t.Fatalf("plans differ in shard count: %d vs %d", len(first), len(again))
	}
	ring := repl.NewRing(0, cfg.Partitions...)
	seenTables := map[string]bool{}
	seenParts := map[string]bool{}
	total := 0
	for i, sh := range first {
		if again[i].table != sh.table || again[i].partition != sh.partition || len(again[i].objects) != len(sh.objects) {
			t.Fatalf("plan not deterministic: %+v vs %+v", sh, again[i])
		}
		if seenTables[sh.table] || seenParts[sh.partition] {
			t.Fatalf("plan reuses table or partition: %s on %s", sh.table, sh.partition)
		}
		seenTables[sh.table], seenParts[sh.partition] = true, true
		// The shard's project must hash onto its partition on the same
		// ring the gateway uses — that is what makes placement real.
		if got := ring.LookupString("reprowd-" + sh.table); got != sh.partition {
			t.Fatalf("shard table %s hashes to %s, planned for %s", sh.table, got, sh.partition)
		}
		total += len(sh.objects)
	}
	if total != len(objects) {
		t.Fatalf("plan covers %d objects, want %d", total, len(objects))
	}
}

func TestCrowdJoinValidation(t *testing.T) {
	engine := platform.NewEngine(vclock.NewVirtual())
	cc := newTestContext(t, engine)
	pairs := []ops.ScoredPair{{A: ops.Record{ID: "a"}, B: ops.Record{ID: "b"}}}
	if _, err := CrowdJoin(cc, pairs, Config{Table: "t"}); err == nil {
		t.Fatal("no partitions should error")
	}
	if _, err := CrowdJoin(cc, pairs, Config{Partitions: []string{"n1"}}); err == nil {
		t.Fatal("no table should error")
	}
	res, err := CrowdJoin(cc, nil, Config{Partitions: []string{"n1"}, Table: "t"})
	if err != nil || len(res.Matches) != 0 {
		t.Fatalf("empty pair set = (%+v, %v), want empty result", res, err)
	}
}
