package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gate"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/repl"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// The topology helper. Every node is wired the way cmd/reprowd-server
// wires it (storage → journal → engine → checkpointer → replication node →
// REST server) with the shipped defaults: -sync always, -snapshot-every
// 4096, -snapshot-bytes 16 MiB. Nodes listen on real loopback sockets
// with no injected delay.

const (
	snapshotEvery = 4096
	snapshotBytes = 16 << 20
	followerPoll  = 250 * time.Millisecond
	probeInterval = 50 * time.Millisecond
	settleTimeout = 30 * time.Second
	// tapCap bounds the committed events a traced leader keeps for the
	// codec probe; encode/decode cost per event does not depend on how
	// many are sampled beyond a few thousand.
	tapCap = 4096
)

// openTimes are the direct timings of one leader open, stage by stage.
type openTimes struct {
	storage, journal, replay time.Duration
	replayed                 uint64 // journal events replayed past the snapshot
}

// leader is one partition leader. It can be stopped and started again on
// the same address and data directory, which is what section (b) of
// rerun_recover times.
type leader struct {
	name string
	dir  string
	addr string // "127.0.0.1:0" until the first listen fixes the port
	ring *repl.Ring
	// clock is the engine's virtual clock. The crowd pool draining this
	// leader's shard shares it, so lease TTLs and worker return delays
	// elapse on one timeline; it survives a reopen.
	clock *vclock.Virtual
	reg   *obs.Registry // nil when untraced
	tr    *tracer       // nil when untraced
	errs  atomic.Int64  // 5xx replies seen by the handler wrapper

	db     *storage.DB
	j      *platform.Journal
	engine *platform.Engine
	cp     *platform.Checkpointer
	node   *repl.Node
	srv    *httptest.Server
	opened openTimes

	tapMu  sync.Mutex
	tapped []platform.Event

	directConn *conn // see cluster.direct
}

func (l *leader) url() string { return "http://" + l.addr }

// listenOn starts an httptest server for h on addr. httptest picks its
// own port, so the listener is replaced before Start to get a stable one.
func listenOn(addr string, h http.Handler) (*httptest.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := httptest.NewUnstartedServer(h)
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	return srv, ln.Addr().String(), nil
}

func (l *leader) start() error {
	t0 := time.Now()
	db, err := storage.Open(l.dir, storage.Options{Sync: storage.SyncAlways, Metrics: l.reg})
	if err != nil {
		return fmt.Errorf("leader %s: %w", l.name, err)
	}
	l.db = db
	t1 := time.Now()
	l.j, err = platform.OpenJournalOpts(db, platform.JournalOptions{Metrics: l.reg})
	if err != nil {
		l.stop()
		return fmt.Errorf("leader %s: %w", l.name, err)
	}
	t2 := time.Now()
	name, ring := l.name, l.ring
	opts := platform.EngineOptions{Clock: l.clock, Journal: l.j, Metrics: l.reg}
	if ring != nil {
		opts.OwnsID = func(id int64) bool { return ring.Lookup(id) == name }
	}
	l.engine, err = platform.NewEngineOpts(opts)
	if err != nil {
		l.stop()
		return fmt.Errorf("leader %s: %w", l.name, err)
	}
	t3 := time.Now()
	l.opened = openTimes{storage: t1.Sub(t0), journal: t2.Sub(t1), replay: t3.Sub(t2), replayed: l.j.Len()}
	if info, ok, err := storage.ReadSnapshotInfo(db, platform.SnapshotPrefix); err == nil && ok {
		l.opened.replayed = l.j.Len() - info.Seq
	}
	l.cp, err = platform.NewCheckpointer(l.engine, platform.CheckpointOptions{
		EveryEvents: snapshotEvery, EveryBytes: snapshotBytes,
	})
	if err != nil {
		l.stop()
		return fmt.Errorf("leader %s: %w", l.name, err)
	}
	if l.tr != nil {
		l.j.AddTap(func(_ uint64, ev platform.Event, _ int) {
			l.tapMu.Lock()
			if len(l.tapped) < tapCap {
				l.tapped = append(l.tapped, ev)
			}
			l.tapMu.Unlock()
		})
	}
	l.node = repl.NewLeaderNode(l.engine, l.j, db)
	l.node.SetIdentity(l.name, l.name)
	api := platform.NewServer(l.engine)
	api.Handle("/api/repl/", l.node.Handler())
	var h http.Handler = api
	if l.tr != nil {
		h = &spanHandler{next: api, name: "platform.serve", tr: l.tr, errors: &l.errs}
	}
	l.srv, l.addr, err = listenOn(l.addr, h)
	if err != nil {
		l.stop()
		return fmt.Errorf("leader %s: %w", l.name, err)
	}
	return nil
}

// stop drops the node's connections (replication long-polls included) and
// closes it in the server's shutdown order: journal committer first, then
// the checkpointer, the replication feed, the store.
func (l *leader) stop() {
	if l.srv != nil {
		l.srv.CloseClientConnections()
		l.srv.Close()
		l.srv = nil
	}
	if l.j != nil {
		l.j.Close()
		l.j = nil
	}
	if l.cp != nil {
		l.cp.Close()
		l.cp = nil
	}
	if l.node != nil {
		l.node.Close()
		l.node = nil
	}
	if l.db != nil {
		l.db.Close()
		l.db = nil
	}
}

// follower is one read replica of a leader.
type follower struct {
	name string
	node *repl.Node
	srv  *httptest.Server
	reg  *obs.Registry
	errs atomic.Int64
}

func startFollower(name string, of *leader, reg *obs.Registry, tr *tracer) (*follower, error) {
	f := &follower{name: name, reg: reg}
	node, err := repl.NewFollowerNode(repl.FollowerOptions{
		LeaderURL: of.url(),
		Clock:     vclock.NewVirtual(),
		PollWait:  followerPoll,
		Metrics:   reg,
	})
	if err != nil {
		return nil, fmt.Errorf("follower %s: %w", name, err)
	}
	f.node = node
	node.SetIdentity(name, of.name)
	api := platform.NewServer(node.Engine())
	api.Handle("/api/repl/", node.Handler())
	var h http.Handler = api
	if tr != nil {
		h = &spanHandler{next: api, name: "platform.serve_follower", tr: tr, errors: &f.errs}
	}
	f.srv = httptest.NewServer(h)
	return f, nil
}

func (f *follower) stop() {
	if f.srv != nil {
		f.srv.CloseClientConnections()
		f.srv.Close()
	}
	if f.node != nil {
		f.node.Close()
	}
}

// cluster is a workload's topology: one leader alone, or two leaders with
// a follower each behind a gateway.
type cluster struct {
	dir       string
	tr        *tracer
	leaders   []*leader
	followers []*follower
	gw        *gate.Gateway
	gwSrv     *httptest.Server
	gwReg     *obs.Registry
	gwErrs    atomic.Int64
	conns     []*conn // every client connection handed out, for teardown
}

// newRegistry returns a metrics registry for a traced run and nil — the
// program's zero-cost configuration — otherwise.
func newRegistry(tr *tracer) *obs.Registry {
	if tr == nil {
		return nil
	}
	return obs.New()
}

// startCluster stands the topology up under dir. gated selects the
// 2-leader + 2-follower + gateway shape; otherwise a single leader.
func startCluster(dir string, gated bool, tr *tracer) (*cluster, error) {
	c := &cluster{dir: dir, tr: tr}
	names := []string{"n1"}
	var ring *repl.Ring
	if gated {
		names = []string{"n1", "n2"}
		ring = repl.NewRing(0, names...)
	}
	for _, name := range names {
		l := &leader{
			name: name, dir: filepath.Join(dir, name), addr: "127.0.0.1:0",
			ring: ring, clock: vclock.NewVirtual(), reg: newRegistry(tr), tr: tr,
		}
		if err := l.start(); err != nil {
			c.stop()
			return nil, err
		}
		c.leaders = append(c.leaders, l)
	}
	if !gated {
		return c, nil
	}
	topo := gate.Topology{}
	for _, l := range c.leaders {
		topo.Nodes = append(topo.Nodes, gate.NodeConfig{Name: l.name, URL: l.url()})
	}
	for i, l := range c.leaders {
		f, err := startFollower(fmt.Sprintf("f%d", i+1), l, newRegistry(tr), tr)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.followers = append(c.followers, f)
		topo.Nodes = append(topo.Nodes, gate.NodeConfig{Name: f.name, URL: f.srv.URL})
	}
	c.gwReg = newRegistry(tr)
	g, err := gate.New(gate.Options{
		Topology: topo, ProbeInterval: probeInterval, ReadCache: true, Metrics: c.gwReg,
	})
	if err != nil {
		c.stop()
		return nil, err
	}
	c.gw = g
	var h http.Handler = g
	if tr != nil {
		h = &spanHandler{next: g, name: "gate.serve", tr: tr, errors: &c.gwErrs}
	}
	c.gwSrv = httptest.NewServer(h)
	if err := c.settle(); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *cluster) gated() bool { return c.gw != nil }

func (c *cluster) stop() {
	for _, cn := range c.conns {
		cn.hc.CloseIdleConnections()
	}
	if c.gwSrv != nil {
		c.gwSrv.CloseClientConnections()
		c.gwSrv.Close()
	}
	if c.gw != nil {
		c.gw.Close()
	}
	for _, f := range c.followers {
		f.stop()
	}
	for _, l := range c.leaders {
		l.stop()
	}
	os.RemoveAll(c.dir)
}

// settle waits until every follower has applied its leader's whole
// journal and the gateway's probe view agrees (it routes reads on probed
// lag): the quiesced state every phase boundary starts from.
func (c *cluster) settle() error {
	for i, f := range c.followers {
		if err := f.node.Follower().WaitFor(c.leaders[i].j.Len(), settleTimeout); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
	}
	if c.gw == nil {
		return nil
	}
	deadline := time.Now().Add(settleTimeout)
	for {
		ok := 0
		for _, n := range c.gw.Snapshot().Nodes {
			switch {
			case n.Role == repl.RoleLeader && n.Reachable && n.Ready:
				for _, l := range c.leaders {
					if l.name == n.Name && n.AppliedSeq == l.j.Len() {
						ok++
					}
				}
			case n.Role == repl.RoleFollower && n.Reachable && n.Ready && n.Lag == 0:
				ok++
			}
		}
		if ok == len(c.leaders)+len(c.followers) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway never saw the topology caught up: %+v", c.gw.Snapshot().Nodes)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// conn is one client connection: its own HTTP connection pool (so load
// goroutines do not contend for the default transport's two idle
// connections per host) and, in a traced run, the transport that stamps
// trace ids.
type conn struct {
	api  *platform.HTTPClient
	hc   *http.Client
	hand *handoff
	tr   *tracer
}

// dial returns a connection to the cluster's front door: the gateway
// (with routing hints on) when there is one, the leader otherwise.
func (c *cluster) dial() *conn {
	if c.gated() {
		return c.dialURL(c.gwSrv.URL, true)
	}
	return c.dialURL(c.leaders[0].url(), false)
}

// direct returns the connection that bypasses the gateway to reach l,
// opening it on first use.
func (c *cluster) direct(l *leader) *conn {
	if l.directConn == nil {
		l.directConn = c.dialURL(l.url(), false)
	}
	return l.directConn
}

// dialURL opens a connection to one base URL.
func (c *cluster) dialURL(url string, gateway bool) *conn {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	cn := &conn{tr: c.tr}
	var rt http.RoundTripper = t
	if c.tr != nil {
		cn.hand = newHandoff()
		rt = &traceTransport{next: t, hand: cn.hand, tr: c.tr}
	}
	cn.hc = &http.Client{Transport: rt}
	cn.api = platform.NewHTTPClientOpts(url, cn.hc, platform.HTTPClientOptions{Gateway: gateway})
	c.conns = append(c.conns, cn)
	return cn
}

// meter wraps the connection for one phase: calls are timed into rec and,
// when traced, recorded as root spans named owner.<method>.
func (cn *conn) meter(rec *recorder, owner string) platform.Client {
	return &meteredClient{inner: cn.api, rec: rec, tr: cn.tr, hand: cn.hand, owner: owner}
}
