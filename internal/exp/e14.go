package exp

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/gate"
	"repro/internal/platform"
	"repro/internal/repl"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// E14Gateway measures the ring-routed gateway over a 2-leader /
// 2-follower topology: writes to ring-disjoint projects must land on
// their owning leaders (verified through each node's /api/stats, not the
// gateway's bookkeeping), doubling the write load across both partitions
// should cost roughly one partition's wall time (the scaling claim), and
// reads must be served entirely by the followers while returning results
// byte-identical to a direct leader read.
//
// With Config.OutDir set, the record is also written as BENCH_gate.json.
func E14Gateway(cfg Config) (Result, error) {
	perPartition := 3000
	if cfg.Quick {
		perPartition = 400
	}
	res := Result{
		ID:    "E14",
		Title: "ring-routed gateway — partitioned writes and follower read fan-out",
		Headers: []string{"writes/partition", "1-partition", "2-partition", "scale ratio",
			"disjoint", "reads follower/leader", "byte-identical"},
	}
	rec, err := runGateScenario(perPartition)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, []string{
		itoa(rec.PerPartition),
		(time.Duration(rec.SingleSeconds * float64(time.Second))).Round(time.Millisecond).String(),
		(time.Duration(rec.DualSeconds * float64(time.Second))).Round(time.Millisecond).String(),
		fmt.Sprintf("%.2f", rec.ScaleRatio),
		fmt.Sprintf("%v", rec.Disjoint),
		fmt.Sprintf("%d/%d", rec.ReadsFollower, rec.ReadsLeader),
		fmt.Sprintf("%v", rec.ByteIdentical),
	})
	if err := CheckGateRouting([]GateRecord{rec}); err != nil {
		res.Notes = append(res.Notes, "FAIL: "+err.Error())
	} else {
		res.Notes = append(res.Notes,
			"gate passed: project-disjoint writes land on their ring owners and scale across partitions; reads ride the followers and match direct leader reads byte for byte")
	}
	if cfg.OutDir != "" {
		buf, err := json.MarshalIndent([]GateRecord{rec}, "", "  ")
		if err != nil {
			return res, err
		}
		path := filepath.Join(cfg.OutDir, "BENCH_gate.json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return res, err
		}
		res.Notes = append(res.Notes, "wrote "+path)
	}
	return res, nil
}

// gateLeader is one leader node of the E14 topology.
type gateLeader struct {
	name   string
	engine *platform.Engine
	j      *platform.Journal
	db     *storage.DB
	cp     *platform.Checkpointer
	node   *repl.Node
	hs     *httptest.Server
}

func (l *gateLeader) close() {
	if l.hs != nil {
		l.hs.Close()
	}
	if l.node != nil {
		l.node.Close()
	}
	if l.j != nil {
		l.j.Close()
	}
	if l.cp != nil {
		l.cp.Close()
	}
	if l.db != nil {
		l.db.Close()
	}
}

func startGateLeader(dir, name string, ring *repl.Ring, checkpointEvery uint64) (*gateLeader, error) {
	l := &gateLeader{name: name}
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		return nil, err
	}
	l.db = db
	l.j, err = platform.OpenJournal(db)
	if err != nil {
		l.close()
		return nil, err
	}
	l.engine, err = platform.NewEngineOpts(platform.EngineOptions{
		Clock:   vclock.NewVirtual(),
		Journal: l.j,
		OwnsID:  func(id int64) bool { return ring.Lookup(id) == name },
	})
	if err != nil {
		l.close()
		return nil, err
	}
	l.cp, err = platform.NewCheckpointer(l.engine, platform.CheckpointOptions{
		EveryEvents:     checkpointEvery,
		CompactMinBytes: 32 << 10,
	})
	if err != nil {
		l.close()
		return nil, err
	}
	l.node = repl.NewLeaderNode(l.engine, l.j, db)
	srv := platform.NewServer(l.engine)
	srv.Handle("/api/repl/", l.node.Handler())
	l.hs = httptest.NewServer(srv)
	return l, nil
}

// runGateScenario drives the 2-leader/2-follower topology end to end.
func runGateScenario(perPartition int) (GateRecord, error) {
	rec := GateRecord{PerPartition: perPartition, Partitions: 2, CPUs: runtime.NumCPU()}
	dir, err := os.MkdirTemp("", "reprowd-e14-*")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(dir)

	ringNames := []string{"n1", "n2"}
	ring := repl.NewRing(0, ringNames...)
	checkpointEvery := uint64(perPartition) // one cut per load phase, roughly
	l1, err := startGateLeader(filepath.Join(dir, "n1"), "n1", ring, checkpointEvery)
	if err != nil {
		return rec, err
	}
	defer l1.close()
	l2, err := startGateLeader(filepath.Join(dir, "n2"), "n2", ring, checkpointEvery)
	if err != nil {
		return rec, err
	}
	defer l2.close()

	followers := make(map[string]*repl.Node, 2)
	followerServers := make(map[string]*httptest.Server, 2)
	for fname, leader := range map[string]*gateLeader{"f1": l1, "f2": l2} {
		fn, err := repl.NewFollowerNode(repl.FollowerOptions{
			LeaderURL: leader.hs.URL,
			Clock:     vclock.NewVirtual(),
			PollWait:  250 * time.Millisecond,
		})
		if err != nil {
			return rec, err
		}
		defer fn.Close()
		srv := platform.NewServer(fn.Engine())
		srv.Handle("/api/repl/", fn.Handler())
		hs := httptest.NewServer(srv)
		defer hs.Close()
		followers[fname] = fn
		followerServers[fname] = hs
	}

	g, err := gate.New(gate.Options{
		Topology: gate.Topology{Nodes: []gate.NodeConfig{
			{Name: "n1", URL: l1.hs.URL},
			{Name: "n2", URL: l2.hs.URL},
			{Name: "f1", URL: followerServers["f1"].URL},
			{Name: "f2", URL: followerServers["f2"].URL},
		}},
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		return rec, err
	}
	defer g.Close()
	gs := httptest.NewServer(g)
	defer gs.Close()
	client := platform.NewGatewayHTTPClient(gs.URL, nil)

	// Two projects pinned to ring-disjoint partitions.
	nameFor := func(owner, prefix string) string {
		for i := 0; ; i++ {
			name := fmt.Sprintf("%s-%d", prefix, i)
			if ring.LookupString(name) == owner {
				return name
			}
		}
	}
	pA, err := client.EnsureProject(platform.ProjectSpec{Name: nameFor("n1", "e14-a"), Redundancy: 1})
	if err != nil {
		return rec, err
	}
	pB, err := client.EnsureProject(platform.ProjectSpec{Name: nameFor("n2", "e14-b"), Redundancy: 1})
	if err != nil {
		return rec, err
	}
	if got := ring.Lookup(pA.ID); got != "n1" {
		return rec, fmt.Errorf("exp e14: project A id %d owned by %s, want n1", pA.ID, got)
	}
	if got := ring.Lookup(pB.ID); got != "n2" {
		return rec, fmt.Errorf("exp e14: project B id %d owned by %s, want n2", pB.ID, got)
	}

	// load publishes n tasks into p through the gateway and submits one
	// answer each, 4 submitters per partition.
	load := func(p platform.Project, prefix string, n int) ([]int64, error) {
		const batch = 256
		var taskIDs []int64
		for off := 0; off < n; off += batch {
			end := off + batch
			if end > n {
				end = n
			}
			specs := make([]platform.TaskSpec, end-off)
			for i := range specs {
				specs[i] = platform.TaskSpec{ExternalID: fmt.Sprintf("%s-%d", prefix, off+i)}
			}
			tasks, err := client.AddTasks(p.ID, specs)
			if err != nil {
				return nil, err
			}
			for _, t := range tasks {
				taskIDs = append(taskIDs, t.ID)
			}
		}
		const workers = 4
		errc := make(chan error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(taskIDs); i += workers {
					if _, err := client.Submit(taskIDs[i], fmt.Sprintf("w-%d", i%7), "yes"); err != nil {
						errc <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		select {
		case err := <-errc:
			return nil, err
		default:
		}
		return taskIDs, nil
	}

	// Phase 1: one partition absorbs the load alone.
	start := time.Now()
	tasksA, err := load(pA, "single", perPartition)
	if err != nil {
		return rec, err
	}
	rec.SingleSeconds = time.Since(start).Seconds()

	// Phase 2: both partitions absorb the same load concurrently — the
	// multi-leader claim is that this costs ~one partition's wall time.
	start = time.Now()
	var wg sync.WaitGroup
	var tasksB []int64
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := load(pA, "dual", perPartition); err != nil {
			errs <- err
		}
	}()
	go func() {
		defer wg.Done()
		var err error
		if tasksB, err = load(pB, "dual", perPartition); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	rec.DualSeconds = time.Since(start).Seconds()
	select {
	case err := <-errs:
		return rec, err
	default:
	}
	if rec.SingleSeconds > 0 {
		rec.ScaleRatio = rec.DualSeconds / rec.SingleSeconds
	}

	// Disjointness, verified through each node's own /api/stats: every
	// leader holds exactly its project's state and nothing else.
	statsOf := func(url string) (platform.PlatformStats, error) {
		return platform.NewHTTPClient(url, nil).PlatformStats()
	}
	st1, err := statsOf(l1.hs.URL)
	if err != nil {
		return rec, err
	}
	st2, err := statsOf(l2.hs.URL)
	if err != nil {
		return rec, err
	}
	wantA, wantB := 2*perPartition, perPartition
	rec.Disjoint = st1.Projects == 1 && st2.Projects == 1 &&
		st1.Tasks == wantA && st1.Runs == wantA &&
		st2.Tasks == wantB && st2.Runs == wantB
	if !rec.Disjoint {
		rec.Note = fmt.Sprintf("n1 %d/%d/%d n2 %d/%d/%d (want 1/%d/%d and 1/%d/%d)",
			st1.Projects, st1.Tasks, st1.Runs, st2.Projects, st2.Tasks, st2.Runs,
			wantA, wantA, wantB, wantB)
	}

	// Let the leaders' fast-acked tails commit and the followers drain,
	// then wait until the gateway's probe view agrees (reads fan out on
	// probed lag).
	batches := (perPartition + 255) / 256
	eventsA := uint64(1 + 2*(batches+perPartition)) // project + 2 load phases
	eventsB := uint64(1 + batches + perPartition)   // project + 1 load phase
	if err := waitJournalLen(l1.j, eventsA); err != nil {
		return rec, err
	}
	if err := waitJournalLen(l2.j, eventsB); err != nil {
		return rec, err
	}
	for fname, want := range map[string]uint64{"f1": eventsA, "f2": eventsB} {
		if err := followers[fname].Follower().WaitFor(want, 2*time.Minute); err != nil {
			return rec, fmt.Errorf("exp e14: %s: %w", fname, err)
		}
	}
	deadline := time.Now().Add(time.Minute)
	for {
		ready := 0
		for _, n := range g.Snapshot().Nodes {
			if n.Role == repl.RoleFollower && n.Ready && n.Reachable && n.Lag == 0 {
				ready++
			}
		}
		if ready == 2 {
			break
		}
		if time.Now().After(deadline) {
			return rec, fmt.Errorf("exp e14: gateway never saw both followers caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Reads through the gateway: served by followers, byte-identical to a
	// direct leader read.
	sample := func(ids []int64, n int) []int64 {
		if len(ids) <= n {
			return ids
		}
		step := len(ids) / n
		out := make([]int64, 0, n)
		for i := 0; i < len(ids) && len(out) < n; i += step {
			out = append(out, ids[i])
		}
		return out
	}
	rec.ByteIdentical = true
	for _, sc := range []struct {
		ids    []int64
		direct string
	}{{sample(tasksA, 100), l1.hs.URL}, {sample(tasksB, 100), l2.hs.URL}} {
		direct := platform.NewHTTPClient(sc.direct, nil)
		for _, id := range sc.ids {
			viaGate, err := client.Runs(id)
			if err != nil {
				return rec, fmt.Errorf("exp e14: runs via gate: %w", err)
			}
			viaLeader, err := direct.Runs(id)
			if err != nil {
				return rec, fmt.Errorf("exp e14: runs via leader: %w", err)
			}
			gb, _ := json.Marshal(viaGate)
			lb, _ := json.Marshal(viaLeader)
			if string(gb) != string(lb) {
				rec.ByteIdentical = false
				rec.Note = fmt.Sprintf("task %d: gate %s != leader %s", id, gb, lb)
				break
			}
			rec.ReadSamples++
		}
	}
	gst := g.Snapshot().Stats
	rec.ReadsFollower = gst.ReadsFollower
	rec.ReadsLeader = gst.ReadsLeader
	rec.Retries = gst.Retries
	rec.Misses = gst.Misses
	return rec, nil
}
