package gate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/repl"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// testNode is one real platform node (leader or follower) under test.
type testNode struct {
	name   string
	engine *platform.Engine
	node   *repl.Node
	hs     *httptest.Server
	j      *platform.Journal
	db     *storage.DB
}

func (n *testNode) close() {
	n.hs.Close()
	if n.node != nil {
		n.node.Close()
	}
	if n.j != nil {
		n.j.Close()
	}
	if n.db != nil {
		n.db.Close()
	}
}

// startLeader boots a journaled leader whose id allocation is filtered by
// ring ownership over ringNames (the partitioned-deployment setup the
// gateway routes by).
func startLeader(t *testing.T, name string, ringNames []string) *testNode {
	t.Helper()
	dir := t.TempDir()
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	j, err := platform.OpenJournal(db)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	ring := repl.NewRing(0, ringNames...)
	engine, err := platform.NewEngineOpts(platform.EngineOptions{
		Clock:   vclock.NewVirtual(),
		Journal: j,
		OwnsID:  func(id int64) bool { return ring.Lookup(id) == name },
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	node := repl.NewLeaderNode(engine, j, db)
	srv := platform.NewServer(engine)
	srv.Handle("/api/repl/", node.Handler())
	return &testNode{name: name, engine: engine, node: node, hs: httptest.NewServer(srv), j: j, db: db}
}

// startFollower boots a read replica of the given leader.
func startFollower(t *testing.T, name, leaderURL string) *testNode {
	t.Helper()
	node, err := repl.NewFollowerNode(repl.FollowerOptions{
		LeaderURL: leaderURL,
		Clock:     vclock.NewVirtual(),
		PollWait:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("follower: %v", err)
	}
	srv := platform.NewServer(node.Engine())
	srv.Handle("/api/repl/", node.Handler())
	return &testNode{name: name, engine: node.Engine(), node: node, hs: httptest.NewServer(srv)}
}

func newTestGateway(t *testing.T, maxLag uint64, nodes ...*testNode) *Gateway {
	t.Helper()
	top := Topology{}
	for _, n := range nodes {
		top.Nodes = append(top.Nodes, NodeConfig{Name: n.name, URL: n.hs.URL})
	}
	g, err := New(Options{
		Topology:      top,
		MaxLag:        maxLag,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	t.Cleanup(g.Close)
	return g
}

// newCachedTestGateway is newTestGateway with the frontier read cache on.
func newCachedTestGateway(t *testing.T, maxLag uint64, nodes ...*testNode) *Gateway {
	t.Helper()
	top := Topology{}
	for _, n := range nodes {
		top.Nodes = append(top.Nodes, NodeConfig{Name: n.name, URL: n.hs.URL})
	}
	g, err := New(Options{
		Topology:      top,
		MaxLag:        maxLag,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
		ReadCache:     true,
	})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	t.Cleanup(g.Close)
	return g
}

// waitSnapshot polls the gateway view until cond holds.
func waitSnapshot(t *testing.T, g *Gateway, what string, cond func(Status) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cond(g.Snapshot()) {
			return
		}
		if time.Now().After(deadline) {
			buf, _ := json.Marshal(g.Snapshot())
			t.Fatalf("timed out waiting for %s; view: %s", what, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// nameOwnedBy searches project names until the ring places one on the
// wanted node — how tests pin a project to a partition.
func nameOwnedBy(ring *repl.Ring, node, prefix string) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		if ring.LookupString(name) == node {
			return name
		}
	}
}

// TestGatewayPartitionedWrites pins the tentpole write path: through one
// gateway, projects on ring-disjoint partitions are created on — and all
// their writes land on — their owning leaders, with ids globally unique.
func TestGatewayPartitionedWrites(t *testing.T) {
	ringNames := []string{"n1", "n2"}
	l1 := startLeader(t, "n1", ringNames)
	defer l1.close()
	l2 := startLeader(t, "n2", ringNames)
	defer l2.close()
	g := newTestGateway(t, DefaultMaxLag, l1, l2)
	gs := httptest.NewServer(g)
	defer gs.Close()

	ring := repl.NewRing(0, ringNames...)
	nameA := nameOwnedBy(ring, "n1", "proj-a")
	nameB := nameOwnedBy(ring, "n2", "proj-b")

	client := platform.NewGatewayHTTPClient(gs.URL, nil)
	pA, err := client.EnsureProject(platform.ProjectSpec{Name: nameA, Redundancy: 1})
	if err != nil {
		t.Fatalf("ensure A: %v", err)
	}
	pB, err := client.EnsureProject(platform.ProjectSpec{Name: nameB, Redundancy: 1})
	if err != nil {
		t.Fatalf("ensure B: %v", err)
	}
	if ring.Lookup(pA.ID) != "n1" || ring.Lookup(pB.ID) != "n2" {
		t.Fatalf("allocated ids not ring-owned: pA=%d→%s pB=%d→%s",
			pA.ID, ring.Lookup(pA.ID), pB.ID, ring.Lookup(pB.ID))
	}
	if _, ok, _ := l1.engine.FindProject(nameA); !ok {
		t.Fatalf("project %s not on its owning leader n1", nameA)
	}
	if _, ok, _ := l2.engine.FindProject(nameB); !ok {
		t.Fatalf("project %s not on its owning leader n2", nameB)
	}
	if _, ok, _ := l1.engine.FindProject(nameB); ok {
		t.Fatalf("project %s leaked onto n1", nameB)
	}

	const n = 20
	taskIDs := map[string][]int64{}
	for _, pc := range []struct {
		p    platform.Project
		name string
	}{{pA, nameA}, {pB, nameB}} {
		specs := make([]platform.TaskSpec, n)
		for i := range specs {
			specs[i] = platform.TaskSpec{ExternalID: fmt.Sprintf("%s-%d", pc.name, i)}
		}
		tasks, err := client.AddTasks(pc.p.ID, specs)
		if err != nil {
			t.Fatalf("add tasks %s: %v", pc.name, err)
		}
		for _, task := range tasks {
			if _, err := client.Submit(task.ID, "w1", "yes"); err != nil {
				t.Fatalf("submit %s/%d: %v", pc.name, task.ID, err)
			}
			taskIDs[pc.name] = append(taskIDs[pc.name], task.ID)
		}
	}
	// Every id allocated by n1 is ring-owned by n1, and vice versa — so
	// the id sets cannot collide.
	seen := map[int64]string{}
	for owner, ids := range taskIDs {
		for _, id := range ids {
			if prev, dup := seen[id]; dup {
				t.Fatalf("task id %d allocated by both %s and %s", id, prev, owner)
			}
			seen[id] = owner
		}
	}
	// Writes landed disjointly: each leader holds exactly its project's
	// tasks and runs.
	for _, chk := range []struct {
		node *testNode
		pid  int64
	}{{l1, pA.ID}, {l2, pB.ID}} {
		st := chk.node.engine.PlatformStats()
		if st.Projects != 1 || st.Tasks != n || st.Runs != n {
			t.Fatalf("leader %s: got %d projects / %d tasks / %d runs, want 1/%d/%d",
				chk.node.name, st.Projects, st.Tasks, st.Runs, n, n)
		}
		if _, err := chk.node.engine.Tasks(chk.pid); err != nil {
			t.Fatalf("leader %s missing project %d: %v", chk.node.name, chk.pid, err)
		}
	}

	// Both flavours of "no task" survive the hop: the leader's 204
	// carries its platform.HeaderNoTask marker, which copyHeaders relays.
	extra, err := client.AddTasks(pA.ID, []platform.TaskSpec{{ExternalID: "extra"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.RequestTask(pA.ID, "w2"); err != nil {
		t.Fatalf("lease extra task: %v", err)
	}
	if _, err := client.RequestTask(pA.ID, "w3"); !errors.Is(err, platform.ErrNoTask) || errors.Is(err, platform.ErrNoTaskLeft) {
		t.Fatalf("lease-blocked via gateway: got %v, want plain ErrNoTask", err)
	}
	if _, err := client.Submit(extra[0].ID, "w2", "yes"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.RequestTask(pA.ID, "w3"); !errors.Is(err, platform.ErrNoTaskLeft) {
		t.Fatalf("exhausted via gateway: got %v, want ErrNoTaskLeft", err)
	}
}

// TestGatewayFollowerReads pins the read fan-out: with caught-up
// followers attached, reads through the gateway never touch a leader and
// return bytes identical to a direct leader read.
func TestGatewayFollowerReads(t *testing.T) {
	ringNames := []string{"n1"}
	l1 := startLeader(t, "n1", ringNames)
	defer l1.close()
	ring := repl.NewRing(0, ringNames...)
	name := nameOwnedBy(ring, "n1", "proj")

	// Load before the followers exist, so they bootstrap + stream it.
	p, err := l1.engine.EnsureProject(platform.ProjectSpec{Name: name, Redundancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := l1.engine.AddTasks(p.ID, []platform.TaskSpec{{ExternalID: "a"}, {ExternalID: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if _, err := l1.engine.Submit(task.ID, "w1", "yes"); err != nil {
			t.Fatal(err)
		}
	}
	f1 := startFollower(t, "f1", l1.hs.URL)
	defer f1.close()
	f2 := startFollower(t, "f2", l1.hs.URL)
	defer f2.close()
	want := l1.j.Len()
	for _, f := range []*testNode{f1, f2} {
		if err := f.node.Follower().WaitFor(want, 30*time.Second); err != nil {
			t.Fatalf("%s catch-up: %v", f.name, err)
		}
	}

	g := newTestGateway(t, DefaultMaxLag, l1, f1, f2)
	gs := httptest.NewServer(g)
	defer gs.Close()
	waitSnapshot(t, g, "both followers ready at lag 0", func(st Status) bool {
		ready := 0
		for _, n := range st.Nodes {
			if n.Role == repl.RoleFollower && n.Ready && n.Reachable && n.Lag == 0 {
				ready++
			}
		}
		return ready == 2
	})

	client := platform.NewGatewayHTTPClient(gs.URL, nil)
	const rounds = 10
	for i := 0; i < rounds; i++ {
		for _, task := range tasks {
			gateRuns, err := client.Runs(task.ID)
			if err != nil {
				t.Fatalf("runs via gate: %v", err)
			}
			directRuns, err := l1.engine.Runs(task.ID)
			if err != nil {
				t.Fatal(err)
			}
			gb, _ := json.Marshal(gateRuns)
			db, _ := json.Marshal(directRuns)
			if string(gb) != string(db) {
				t.Fatalf("gate read diverges from leader read:\n gate: %s\n direct: %s", gb, db)
			}
		}
		if _, err := client.Stats(p.ID); err != nil {
			t.Fatalf("stats via gate: %v", err)
		}
	}
	st := g.Snapshot()
	if st.Stats.ReadsLeader != 0 {
		t.Fatalf("%d reads touched the leader (want 0): %+v", st.Stats.ReadsLeader, st.Stats)
	}
	if st.Stats.ReadsFollower == 0 {
		t.Fatalf("no reads on followers: %+v", st.Stats)
	}
	// Fan-out actually spread: both followers served.
	for _, n := range st.Nodes {
		if n.Role == repl.RoleFollower && n.Reads == 0 {
			t.Fatalf("follower %s served no reads: %+v", n.Name, st.Nodes)
		}
	}
}

// TestGatewayFrontierReadCache pins the frontier read cache acceptance:
// repeated project stats/list reads through the gateway are served from
// the cache without touching any node (per-node request counters stay
// flat), and a write relayed through the gateway invalidates the
// partition's entries the moment its response returns — the next read
// refetches and reflects the new state.
func TestGatewayFrontierReadCache(t *testing.T) {
	ringNames := []string{"n1"}
	l1 := startLeader(t, "n1", ringNames)
	defer l1.close()
	g := newCachedTestGateway(t, DefaultMaxLag, l1)
	gs := httptest.NewServer(g)
	defer gs.Close()
	waitSnapshot(t, g, "leader ready", func(st Status) bool { return st.Ready })

	ring := repl.NewRing(0, ringNames...)
	name := nameOwnedBy(ring, "n1", "proj")
	client := platform.NewGatewayHTTPClient(gs.URL, nil)
	p, err := client.EnsureProject(platform.ProjectSpec{Name: name, Redundancy: 2})
	if err != nil {
		t.Fatalf("ensure: %v", err)
	}
	tasks, err := client.AddTasks(p.ID, []platform.TaskSpec{{ExternalID: "a"}, {ExternalID: "b"}})
	if err != nil {
		t.Fatalf("add tasks: %v", err)
	}
	if _, err := client.Submit(tasks[0].ID, "w1", "yes"); err != nil {
		t.Fatalf("submit: %v", err)
	}

	nodeReads := func() uint64 {
		var total uint64
		for _, n := range g.Snapshot().Nodes {
			total += n.Reads
		}
		return total
	}

	// The store is SyncNever, so acks run ahead of the committer: fence
	// it, or the priming reads could tag a frontier the next probe sees
	// move — an invalidation this test did not cause.
	if err := l1.j.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	// Prime the cache: the first stats and task-list reads must miss and
	// be forwarded to the leader.
	before := g.Snapshot().Stats
	stats1, err := client.Stats(p.ID)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	list1, err := client.Tasks(p.ID)
	if err != nil {
		t.Fatalf("tasks: %v", err)
	}
	primed := g.Snapshot()
	if primed.Stats.CacheHits != before.CacheHits {
		t.Fatalf("priming reads counted as hits: %+v -> %+v", before, primed.Stats)
	}
	if got := primed.Stats.CacheMisses - before.CacheMisses; got < 2 {
		t.Fatalf("priming reads not counted as misses: got %d, want >= 2", got)
	}
	base := nodeReads()
	if base == 0 {
		t.Fatalf("priming reads touched no node: %+v", primed.Nodes)
	}

	// Repeated reads are cache hits: identical bytes, zero node traffic.
	const rounds = 5
	for i := 0; i < rounds; i++ {
		stats2, err := client.Stats(p.ID)
		if err != nil {
			t.Fatalf("cached stats: %v", err)
		}
		if a, b := mustJSON(t, stats1), mustJSON(t, stats2); a != b {
			t.Fatalf("cached stats diverge:\n first: %s\n cached: %s", a, b)
		}
		list2, err := client.Tasks(p.ID)
		if err != nil {
			t.Fatalf("cached tasks: %v", err)
		}
		if a, b := mustJSON(t, list1), mustJSON(t, list2); a != b {
			t.Fatalf("cached task list diverges:\n first: %s\n cached: %s", a, b)
		}
	}
	if got := nodeReads(); got != base {
		t.Fatalf("cached reads touched nodes: per-node read counters moved %d -> %d", base, got)
	}
	mid := g.Snapshot().Stats
	if got := mid.CacheHits - primed.Stats.CacheHits; got != 2*rounds {
		t.Fatalf("cache hits = %d, want %d", got, 2*rounds)
	}

	// A write through the gateway advances the partition frontier, which
	// must invalidate both cached reads deterministically (no probe wait).
	if _, err := client.Submit(tasks[1].ID, "w2", "no"); err != nil {
		t.Fatalf("invalidating submit: %v", err)
	}
	stats3, err := client.Stats(p.ID)
	if err != nil {
		t.Fatalf("stats after write: %v", err)
	}
	if a, b := mustJSON(t, stats1), mustJSON(t, stats3); a == b {
		t.Fatalf("stats read after write served stale cache entry: %s", a)
	}
	after := g.Snapshot().Stats
	if after.CacheMisses == mid.CacheMisses {
		t.Fatalf("read after write did not refetch: %+v -> %+v", mid, after)
	}
	if got := nodeReads(); got == base {
		t.Fatalf("read after write touched no node: counters still %d", base)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(buf)
}

// stubNode fakes a platform node: scripted healthz plus a handler.
type stubNode struct {
	hs     *httptest.Server
	mu     sync.Mutex
	health platform.ReplStats
	handle http.HandlerFunc
	hits   int
}

func newStubNode(health platform.ReplStats, handle http.HandlerFunc) *stubNode {
	s := &stubNode{health: health, handle: handle}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		st := s.health
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if !st.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.hits++
		h := s.handle
		s.mu.Unlock()
		if h == nil {
			http.Error(w, "stub has no handler", http.StatusInternalServerError)
			return
		}
		h(w, r)
	})
	s.hs = httptest.NewServer(mux)
	return s
}

func (s *stubNode) hitCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

// TestGatewayRetriesNextRingCandidateOn503 pins the failover walk for
// id-routed writes: the ring maps the id onto an overloaded leader that
// answers 503 mid-request, and the write lands on the ring successor
// instead of failing. The walk is sound for id writes — a successor that
// does not hold the id answers a typed 404 and never mutates — and it is
// exactly what absorbs ring drift: here the project predates "sick"
// joining the ring, so its true home is the successor n2. (Ensures get
// no such walk: a wrong leader would answer an ensure by creating, see
// TestGatewayEnsureOwnerOutageDoesNotMintDuplicate.)
func TestGatewayRetriesNextRingCandidateOn503(t *testing.T) {
	sick := newStubNode(platform.ReplStats{Role: repl.RoleLeader, Ready: true},
		func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "overloaded", "code": "internal"})
		})
	defer sick.hs.Close()
	// n2 predates "sick" in the ring: in its own allocation view it owns
	// the whole keyspace.
	l2 := startLeader(t, "n2", []string{"n2"})
	defer l2.close()
	// Create projects directly on n2 until one's id maps to "sick" under
	// the gateway's grown ring — the drift case.
	ring := repl.NewRing(0, "sick", "n2")
	var p platform.Project
	for i := 0; ; i++ {
		var err error
		p, err = l2.engine.EnsureProject(platform.ProjectSpec{Name: fmt.Sprintf("drift-%d", i), Redundancy: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ring.Lookup(p.ID) == "sick" {
			break
		}
	}

	g := newTestGateway(t, DefaultMaxLag, &testNode{name: "n2", hs: l2.hs})
	// Swap in the topology with the stub under the name the ring routes
	// to (SetTopology probes synchronously, so routing is correct when it
	// returns).
	if err := g.SetTopology(Topology{Nodes: []NodeConfig{
		{Name: "sick", URL: sick.hs.URL},
		{Name: "n2", URL: l2.hs.URL},
	}}); err != nil {
		t.Fatal(err)
	}
	gs := httptest.NewServer(g)
	defer gs.Close()

	client := platform.NewHTTPClient(gs.URL, nil)
	if _, err := client.AddTasks(p.ID, []platform.TaskSpec{{ExternalID: "x"}}); err != nil {
		t.Fatalf("write through flaky ring owner: %v", err)
	}
	if sick.hitCount() == 0 {
		t.Fatal("owner was never tried — test routed around it from the start")
	}
	if g.Snapshot().Stats.Retries == 0 {
		t.Fatalf("no retry recorded: %+v", g.Snapshot().Stats)
	}
	tasks, err := l2.engine.Tasks(p.ID)
	if err != nil || len(tasks) != 1 {
		t.Fatalf("write did not land on the ring successor n2: tasks=%v err=%v", tasks, err)
	}
	// And the successor keeps serving the project afterwards.
	if _, err := client.AddTasks(p.ID, []platform.TaskSpec{{ExternalID: "y"}}); err != nil {
		t.Fatalf("follow-up write: %v", err)
	}
}

// TestGatewayDownPartitionWriteIsNotAMiss pins the 404-trust rule: when
// the leader owning an id is unreachable, a write must come back as a
// retryable gateway error (502/503), never as a typed unknown_project —
// the client would treat that as a definitive verdict and drop the
// write for good, even though the owner might hold the project and
// simply be mid-failover.
func TestGatewayDownPartitionWriteIsNotAMiss(t *testing.T) {
	ringNames := []string{"dead", "n2"}
	dead := newStubNode(platform.ReplStats{Role: repl.RoleLeader, Ready: true},
		func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "unused", http.StatusInternalServerError)
		})
	l2 := startLeader(t, "n2", ringNames)
	defer l2.close()
	g := newTestGateway(t, DefaultMaxLag,
		&testNode{name: "dead", hs: dead.hs}, &testNode{name: "n2", hs: l2.hs})
	gs := httptest.NewServer(g)
	defer gs.Close()
	waitSnapshot(t, g, "both probed as leaders", func(st Status) bool {
		n := 0
		for _, node := range st.Nodes {
			if node.Role == repl.RoleLeader && node.Reachable {
				n++
			}
		}
		return n == 2
	})
	// Kill the owner and let a probe round notice.
	dead.hs.Close()
	waitSnapshot(t, g, "dead leader marked unreachable", func(st Status) bool {
		for _, node := range st.Nodes {
			if node.Name == "dead" {
				return !node.Reachable
			}
		}
		return false
	})

	ring := repl.NewRing(0, ringNames...)
	var id int64
	for id = 1; ring.Lookup(id) != "dead"; id++ {
	}
	resp, err := http.Post(fmt.Sprintf("%s/api/projects/%d/tasks", gs.URL, id),
		"application/json", bytes.NewReader([]byte(`[{"external_id":"x"}]`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		t.Fatalf("write to a down partition answered 404 — a typed verdict the client would never retry")
	}
	if resp.StatusCode != http.StatusBadGateway && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want retryable 502/503, got HTTP %d", resp.StatusCode)
	}
}

// TestGatewayStartDuringOutageDoesNotMintTypedMiss pins the silent-node
// rule: a gateway that starts (or restarts — it is stateless) while a
// configured node is down has never probed that node, so it cannot know
// whether the node was a leader owning part of the keyspace. Until the
// node is probed, requests the visible leaders answer with a typed
// unknown_project/unknown_task must come back retryable (502/503) — a
// relayed 404 would make the client drop the write for good, for the
// whole remaining outage.
func TestGatewayStartDuringOutageDoesNotMintTypedMiss(t *testing.T) {
	ringNames := []string{"dead", "n2"}
	// "dead" is down before the gateway's first probe: grab a URL, then
	// close the listener so every probe fails from the start.
	dead := newStubNode(platform.ReplStats{Role: repl.RoleLeader, Ready: true}, nil)
	deadURL := dead.hs.URL
	dead.hs.Close()
	l2 := startLeader(t, "n2", ringNames)
	defer l2.close()

	g, err := New(Options{
		Topology: Topology{Nodes: []NodeConfig{
			{Name: "dead", URL: deadURL},
			{Name: "n2", URL: l2.hs.URL},
		}},
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gs := httptest.NewServer(g)
	defer gs.Close()

	ring := repl.NewRing(0, ringNames...)
	var id int64
	for id = 1; ring.Lookup(id) != "dead"; id++ {
	}
	// A write into the invisible partition: n2, the only probed leader,
	// answers a typed unknown_project — which must not reach the client.
	resp, err := http.Post(fmt.Sprintf("%s/api/projects/%d/tasks", gs.URL, id),
		"application/json", bytes.NewReader([]byte(`[{"external_id":"x"}]`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		t.Fatal("write answered a typed 404 while a configured node was still unprobed")
	}
	if resp.StatusCode != http.StatusBadGateway && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want retryable 502/503, got HTTP %d", resp.StatusCode)
	}
	// The find fan-out holds the same line...
	fresp, err := http.Get(gs.URL + "/api/projects/find?name=somewhere-unseen")
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if fresp.StatusCode == http.StatusNotFound {
		t.Fatal("find answered a typed 404 while a configured node was still unprobed")
	}
	// ...the project list refuses to merge without the hidden partition...
	lresp, err := http.Get(gs.URL + "/api/projects")
	if err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode == http.StatusOK {
		t.Fatal("project list merged while a configured node was still unprobed — possibly partial")
	}
	// ...and an ensure refuses to place a name (it might already live on
	// the invisible node).
	req, err := http.NewRequest(http.MethodPut, gs.URL+"/api/projects",
		bytes.NewReader([]byte(`{"name":"maybe-on-dead","redundancy":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	eresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	eresp.Body.Close()
	if eresp.StatusCode != http.StatusBadGateway && eresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ensure during unprobed outage: want retryable 502/503, got HTTP %d", eresp.StatusCode)
	}
	if _, ok, _ := l2.engine.FindProject("maybe-on-dead"); ok {
		t.Fatal("ensure minted the project on a non-owner while a node was unprobed")
	}
}

// TestGatewayEnsureOwnerOutageDoesNotMintDuplicate pins the ensure-stays-
// an-ensure invariant through an owner outage: the name already exists on
// its owning leader; that leader dies; re-ensuring the same name through
// the gateway must come back retryable — not walk onto the ring successor
// and create a second project under the same name on another partition.
func TestGatewayEnsureOwnerOutageDoesNotMintDuplicate(t *testing.T) {
	ringNames := []string{"n1", "n2"}
	l1 := startLeader(t, "n1", ringNames)
	l2 := startLeader(t, "n2", ringNames)
	defer l2.close()
	ring := repl.NewRing(0, ringNames...)
	name := nameOwnedBy(ring, "n1", "dup")
	if _, err := l1.engine.EnsureProject(platform.ProjectSpec{Name: name, Redundancy: 1}); err != nil {
		t.Fatal(err)
	}

	g := newTestGateway(t, DefaultMaxLag, l1, l2)
	gs := httptest.NewServer(g)
	defer gs.Close()
	waitSnapshot(t, g, "both probed as leaders", func(st Status) bool {
		n := 0
		for _, node := range st.Nodes {
			if node.Role == repl.RoleLeader && node.Reachable {
				n++
			}
		}
		return n == 2
	})
	l1.close()
	waitSnapshot(t, g, "n1 marked unreachable", func(st Status) bool {
		for _, node := range st.Nodes {
			if node.Name == "n1" {
				return !node.Reachable
			}
		}
		return false
	})

	req, err := http.NewRequest(http.MethodPut, gs.URL+"/api/projects",
		bytes.NewReader([]byte(fmt.Sprintf(`{"name":%q,"redundancy":1}`, name))))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ensure during owner outage: want retryable 502/503, got HTTP %d", resp.StatusCode)
	}
	if _, ok, _ := l2.engine.FindProject(name); ok {
		t.Fatalf("ensure minted a duplicate of %q on the ring successor", name)
	}
}

// TestGatewayLaggingFollowerFallsBackToLeader pins the lag threshold: a
// follower reporting lag above MaxLag is skipped and the read is served
// by the leader.
func TestGatewayLaggingFollowerFallsBackToLeader(t *testing.T) {
	ringNames := []string{"n1"}
	l1 := startLeader(t, "n1", ringNames)
	defer l1.close()
	ring := repl.NewRing(0, ringNames...)
	name := nameOwnedBy(ring, "n1", "proj")
	p, err := l1.engine.EnsureProject(platform.ProjectSpec{Name: name, Redundancy: 1})
	if err != nil {
		t.Fatal(err)
	}

	// A "follower" whose healthz reports an enormous lag; any read routed
	// to it would fail loudly.
	lagging := newStubNode(
		platform.ReplStats{Role: repl.RoleFollower, Ready: true, Lag: 99999,
			LeaderURL: l1.hs.URL},
		func(w http.ResponseWriter, r *http.Request) {
			t.Errorf("read reached the lagging follower: %s %s", r.Method, r.URL)
			http.Error(w, "must not be read", http.StatusInternalServerError)
		})
	defer lagging.hs.Close()

	g := newTestGateway(t, 16, l1, &testNode{name: "lag", hs: lagging.hs})
	gs := httptest.NewServer(g)
	defer gs.Close()
	waitSnapshot(t, g, "lagging follower probed", func(st Status) bool {
		for _, n := range st.Nodes {
			if n.Name == "lag" && n.Role == repl.RoleFollower {
				return true
			}
		}
		return false
	})

	client := platform.NewHTTPClient(gs.URL, nil)
	if _, err := client.Stats(p.ID); err != nil {
		t.Fatalf("read with lagging follower: %v", err)
	}
	st := g.Snapshot()
	if st.Stats.ReadsLeader == 0 {
		t.Fatalf("read did not fall back to the leader: %+v", st.Stats)
	}
	if st.Stats.ReadsFollower != 0 {
		t.Fatalf("read served by the lagging follower: %+v", st.Stats)
	}
}

// TestGatewayFollows307FromDemotedNode pins topology-change handling: a
// node the topology still lists as the partition owner has become a
// follower and 307s writes to its leader; the gateway follows the
// redirect so the client still lands the write.
func TestGatewayFollows307FromDemotedNode(t *testing.T) {
	ringNames := []string{"old", "n2"}
	l2 := startLeader(t, "n2", ringNames)
	defer l2.close()
	demoted := newStubNode(
		// Still claims leader on healthz (stale role — the interesting
		// case: the gateway only learns the truth from the 307).
		platform.ReplStats{Role: repl.RoleLeader, Ready: true},
		func(w http.ResponseWriter, r *http.Request) {
			target := l2.hs.URL + r.URL.Path
			if r.URL.RawQuery != "" {
				target += "?" + r.URL.RawQuery
			}
			http.Redirect(w, r, target, http.StatusTemporaryRedirect)
		})
	defer demoted.hs.Close()

	g := newTestGateway(t, DefaultMaxLag, &testNode{name: "old", hs: demoted.hs}, &testNode{name: "n2", hs: l2.hs})
	gs := httptest.NewServer(g)
	defer gs.Close()

	ring := repl.NewRing(0, ringNames...)
	name := nameOwnedBy(ring, "old", "proj")
	client := platform.NewHTTPClient(gs.URL, nil)
	if _, err := client.EnsureProject(platform.ProjectSpec{Name: name, Redundancy: 1}); err != nil {
		t.Fatalf("ensure through demoted node: %v", err)
	}
	if _, ok, _ := l2.engine.FindProject(name); !ok {
		t.Fatal("redirected write did not land on the real leader")
	}
	if g.Snapshot().Stats.Redirects == 0 {
		t.Fatalf("no redirect recorded: %+v", g.Snapshot().Stats)
	}
}

// TestGatewayTopologyHotReloadUnderTraffic hammers the gateway with
// writes and reads while the topology is concurrently replaced (second
// leader added/removed, posted both through the API and via SetTopology).
// Run under -race; every request must still succeed — reload must never
// drop traffic.
func TestGatewayTopologyHotReloadUnderTraffic(t *testing.T) {
	ringNames := []string{"n1", "n2"}
	l1 := startLeader(t, "n1", ringNames)
	defer l1.close()
	l2 := startLeader(t, "n2", ringNames)
	defer l2.close()
	g := newTestGateway(t, DefaultMaxLag, l1, l2)
	gs := httptest.NewServer(g)
	defer gs.Close()

	both := Topology{Nodes: []NodeConfig{
		{Name: "n1", URL: l1.hs.URL}, {Name: "n2", URL: l2.hs.URL}}}
	// Note: only n2 is removed/re-added; n1's partition stays stable, so
	// traffic pinned to n1-owned projects must never fail.
	ring := repl.NewRing(0, ringNames...)
	client := platform.NewGatewayHTTPClient(gs.URL, nil)
	name := nameOwnedBy(ring, "n1", "stable")
	p, err := client.EnsureProject(platform.ProjectSpec{Name: name, Redundancy: 3})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := client.AddTasks(p.ID, []platform.TaskSpec{{ExternalID: "seed"}})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				specs := []platform.TaskSpec{{ExternalID: fmt.Sprintf("w%d-%d", w, i)}}
				if _, err := client.AddTasks(p.ID, specs); err != nil {
					errs <- fmt.Errorf("worker %d add: %w", w, err)
					return
				}
				if _, err := client.Runs(tasks[0].ID); err != nil {
					errs <- fmt.Errorf("worker %d read: %w", w, err)
					return
				}
			}
		}(w)
	}
	// Reloader: flip membership for a while, half through the Go API,
	// half through the admin endpoint.
	one := Topology{Nodes: both.Nodes[:1]}
	for i := 0; i < 20; i++ {
		next := both
		if i%2 == 1 {
			next = one
		}
		if i%4 < 2 {
			if err := g.SetTopology(next); err != nil {
				t.Fatalf("reload %d: %v", i, err)
			}
		} else {
			buf, _ := json.Marshal(next)
			resp, err := http.Post(gs.URL+"/api/gate/topology", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Fatalf("POST topology %d: %v", i, err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST topology %d: HTTP %d", i, resp.StatusCode)
			}
			resp.Body.Close()
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("traffic failed during reloads: %v", err)
	default:
	}
	if got := g.Snapshot().Stats.Reloads; got < 20 {
		t.Fatalf("expected >= 20 reloads, got %d", got)
	}
}
