package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/distops"
	"repro/internal/gate"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/platform"
	"repro/internal/quality"
	"repro/internal/repl"
	"repro/internal/simdata"
	"repro/internal/similarity"
	"repro/internal/vclock"
)

// E17DistOps measures the distributed crowd-operator runtime
// (internal/distops) over a simulated multi-leader topology: a
// multi-thousand-pair crowd join is planned into per-partition shards,
// fanned out through the ring-routed gateway, streamed into incremental
// Dawid-Skene as answers land, and compared against the same workload on
// a single-leader deployment. The acceptance bars are structural —
// per-leader task sets disjoint and covering, the distributed match set
// equal to the single-node one, the incremental decisions equal to a
// batch fit over the same votes — plus the wall-clock scale ratio,
// recorded but (like E14's) not gated on machine speed.
//
// With Config.OutDir set, the record is also written as BENCH_dist.json.
func E17DistOps(cfg Config) (Result, error) {
	entities, pairsWanted, workers := 64, 4000, 5
	if cfg.Quick {
		entities, pairsWanted, workers = 36, 1000, 3
	}
	res := Result{
		ID:    "E17",
		Title: "distributed crowd join — partitioned operator runtime vs single leader",
		Headers: []string{"pairs", "partitions", "1-leader", "4-leader", "scale",
			"disjoint", "equivalent", "incr==batch", "streamed", "F1"},
	}

	corpus := simdata.Restaurants(simdata.ERConfig{
		Seed: cfg.Seed, Entities: entities, DupProb: 0.5, MaxDups: 2, NoiseOps: 2,
	})
	records := erRecords(corpus)
	pairs, err := ops.TopPairs(records, pairsWanted, similarity.Measure{})
	if err != nil {
		return res, err
	}
	if len(pairs) < pairsWanted {
		return res, fmt.Errorf("exp e17: corpus yields %d pairs, want %d", len(pairs), pairsWanted)
	}

	rec := DistRecord{
		Pairs:      len(pairs),
		Partitions: 4,
		Workers:    workers,
		Redundancy: workers,
		CPUs:       runtime.NumCPU(),
	}

	// Phase 1: the whole workload on one leader, batch aggregation at
	// drain — the paper's single-node baseline.
	single, singleSecs, _, err := runDistJoin(corpus, pairs, []string{"s1"}, workers, false)
	if err != nil {
		return res, err
	}
	rec.SingleSeconds = singleSecs

	// Phase 2: the same workload planned across 4 ring partitions,
	// verdicts streaming into incremental Dawid-Skene.
	parts := []string{"n1", "n2", "n3", "n4"}
	dist, distSecs, perLeader, err := runDistJoin(corpus, pairs, parts, workers, true)
	if err != nil {
		return res, err
	}
	rec.DistSeconds = distSecs
	if distSecs > 0 {
		// Throughput scale: >1 means the 4-leader topology finished the
		// same workload faster than the single leader.
		rec.ScaleRatio = singleSecs / distSecs
	}
	rec.Streamed = dist.Streamed
	rec.Matches = len(dist.Matches)

	// Disjointness, through each leader's own /api/stats: every
	// partition holds exactly its planned shard's tasks, nothing else,
	// and together they cover the whole pair set.
	rec.TasksPerPartition = perLeader
	rec.Disjoint = len(perLeader) == len(parts)
	total := 0
	planned := map[string]int{}
	for _, sh := range dist.Shards {
		planned[sh.Partition] += sh.Tasks
	}
	for part, tasks := range perLeader {
		total += tasks
		if tasks == 0 || tasks != planned[part] {
			rec.Disjoint = false
			rec.Note = fmt.Sprintf("partition %s holds %d tasks, plan says %d", part, tasks, planned[part])
		}
	}
	if total != len(pairs) {
		rec.Disjoint = false
		rec.Note = fmt.Sprintf("leaders hold %d tasks, want %d", total, len(pairs))
	}

	// Result-set equivalence: the distributed run must land on exactly
	// the single-node match set (deterministic workers make the vote
	// multisets identical, so any divergence is a runtime bug).
	rec.Equivalent = len(dist.Matches) == len(single.Matches)
	for k := range single.Matches {
		if !dist.Matches[k] {
			rec.Equivalent = false
			rec.Note = "distributed run lost match " + k
		}
	}

	// Incremental-vs-batch: a batch Dawid-Skene fit over the collected
	// votes must reproduce the online model's decisions.
	batch := quality.DawidSkene{}.Fit(dist.Votes)
	rec.IncrementalMatchesBatch = len(batch.Decisions) == len(dist.Decisions)
	for item, bd := range batch.Decisions {
		if od, ok := dist.Decisions[item]; !ok || od.Value != bd.Value {
			rec.IncrementalMatchesBatch = false
			rec.Note = fmt.Sprintf("item %s: incremental %q vs batch %q", item, dist.Decisions[item].Value, bd.Value)
			break
		}
	}

	q := metrics.PairQuality(dist.Matches, corpus.Matches)
	rec.F1 = q.F1

	res.Rows = append(res.Rows, []string{
		itoa(rec.Pairs), itoa(rec.Partitions),
		(time.Duration(rec.SingleSeconds * float64(time.Second))).Round(time.Millisecond).String(),
		(time.Duration(rec.DistSeconds * float64(time.Second))).Round(time.Millisecond).String(),
		fmt.Sprintf("%.2fx", rec.ScaleRatio),
		fmt.Sprintf("%v", rec.Disjoint),
		fmt.Sprintf("%v", rec.Equivalent),
		fmt.Sprintf("%v", rec.IncrementalMatchesBatch),
		itoa(rec.Streamed),
		ftoa(rec.F1),
	})
	if err := CheckDist([]DistRecord{rec}); err != nil {
		res.Notes = append(res.Notes, "FAIL: "+err.Error())
	} else {
		res.Notes = append(res.Notes,
			"gate passed: shards land disjoint on their ring owners, the distributed match set equals the single-leader run, and streaming Dawid-Skene converges to the batch fit")
	}
	if cfg.OutDir != "" {
		buf, err := json.MarshalIndent([]DistRecord{rec}, "", "  ")
		if err != nil {
			return res, err
		}
		path := filepath.Join(cfg.OutDir, "BENCH_dist.json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return res, err
		}
		res.Notes = append(res.Notes, "wrote "+path)
	}
	return res, nil
}

// runDistJoin stands up a gated topology of the named leader partitions,
// runs the pair workload through distops.CrowdJoin with deterministic
// workers, and reports the result, the wall seconds spent, and each
// leader's own task count (read through its direct /api/stats, not the
// gateway's bookkeeping).
func runDistJoin(corpus simdata.ERCorpus, pairs []ops.ScoredPair, parts []string, workers int, online bool) (distops.Result, float64, map[string]int, error) {
	var zero distops.Result
	dir, err := os.MkdirTemp("", "reprowd-e17-*")
	if err != nil {
		return zero, 0, nil, err
	}
	defer os.RemoveAll(dir)

	ring := repl.NewRing(0, parts...)
	leaders := make(map[string]*gateLeader, len(parts))
	topo := gate.Topology{}
	for _, name := range parts {
		l, err := startGateLeader(filepath.Join(dir, name), name, ring, uint64(len(pairs)))
		if err != nil {
			return zero, 0, nil, err
		}
		defer l.close()
		leaders[name] = l
		topo.Nodes = append(topo.Nodes, gate.NodeConfig{Name: name, URL: l.hs.URL})
	}
	g, err := gate.New(gate.Options{Topology: topo, ProbeInterval: 50 * time.Millisecond})
	if err != nil {
		return zero, 0, nil, err
	}
	defer g.Close()
	gs := httptest.NewServer(g)
	defer gs.Close()
	client := platform.NewGatewayHTTPClient(gs.URL, nil)

	cc, err := core.NewContext(core.Options{
		DBDir:  filepath.Join(dir, "ctx"),
		Client: client,
		Clock:  vclock.NewVirtual(),
	})
	if err != nil {
		return zero, 0, nil, err
	}
	defer cc.Close()

	dcfg := distops.Config{
		Partitions:   parts,
		Table:        "e17",
		Redundancy:   workers,
		BatchSize:    256,
		Concurrency:  4,
		PollInterval: 2 * time.Millisecond,
		// The context clock is virtual (it only stamps rows); the
		// collector paces real HTTP polls, so it gets wall time.
		Clock: vclock.NewWall(),
		Answer: func(sr distops.ShardRun) error {
			return driveDistShard(client, sr, workers, corpus.Matches)
		},
	}
	if online {
		dcfg.Quality = quality.NewOnlineDawidSkene(quality.DawidSkene{}, 64)
	} else {
		dcfg.Aggregator = quality.DawidSkene{}
	}

	start := time.Now()
	res, err := distops.CrowdJoin(cc, pairs, dcfg)
	if err != nil {
		return zero, 0, nil, err
	}
	secs := time.Since(start).Seconds()

	perLeader := make(map[string]int, len(parts))
	for name, l := range leaders {
		st, err := platform.NewHTTPClient(l.hs.URL, nil).PlatformStats()
		if err != nil {
			return zero, 0, nil, err
		}
		if st.Tasks > 0 {
			perLeader[name] = st.Tasks
		}
	}
	return res, secs, perLeader, nil
}

// driveDistShard makes `workers` deterministic workers answer every task
// of one shard through the gateway client: each answers the truth,
// flipped for a fixed ~10% of (worker, item) combinations via FNV — so
// the vote multiset depends only on the pair set, never on the topology
// or on arrival order.
func driveDistShard(client platform.Client, sr distops.ShardRun, workers int, truth map[string]bool) error {
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
			ans := "No"
			if truth[metrics.PairKey(task.Payload["id_a"], task.Payload["id_b"])] {
				ans = "Yes"
			}
			h := fnv.New64a()
			h.Write([]byte(id + "|" + item))
			if h.Sum64()%100 < 10 {
				if ans == "Yes" {
					ans = "No"
				} else {
					ans = "Yes"
				}
			}
			if _, err := client.Submit(task.ID, id, ans); err != nil {
				return err
			}
		}
	}
	return nil
}
