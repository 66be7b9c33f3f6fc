// Package gate is the platform's ring-routed front door: a stateless HTTP
// gateway that makes N partitioned reprowd nodes look like one server.
//
// A Gateway fronts a set of leaders (each owning a ring partition of the
// project keyspace, see repl.Ring) and their read replicas. It speaks the
// exact REST surface platform.Server does, so any platform.HTTPClient —
// and therefore any reprowd.Context — works unchanged against it:
//
//   - Writes (EnsureProject, AddTasks, RequestTask, Submit, BanWorker)
//     are routed to the owning leader: by the client's echoed shard-key
//     hint when present (platform.HeaderShardKey), else by ring lookup
//     over the id in the path — valid because leaders allocate only ids
//     they own (platform.EngineOptions.OwnsID) — with new project names
//     placed by ring hash of the name. An unhealthy owner is retried on
//     the next ring candidate, and an id the routed node does not know
//     (ring membership drifted since creation) falls back to asking the
//     remaining leaders, after which the discovered owner is cached.
//   - Reads (Tasks, Runs, Stats, QueueStats, preview) fan out to the
//     owner's followers, round-robin over those whose replication lag is
//     at or below Options.MaxLag, falling back to the leader when no
//     follower qualifies. List/find endpoints merge across partitions.
//   - Topology change is absorbed, not configured twice: a background
//     prober polls every node's GET /api/healthz for role, readiness,
//     lag and leader association, the leader ring is rebuilt when roles
//     move, a 307 from a demoted node is followed and triggers an
//     immediate re-probe, and membership itself hot-reloads through
//     SetTopology (the reprowd-gate command wires a -topology file and
//     POST /api/gate/topology to it) without dropping in-flight traffic.
//
// Concurrency model: one RWMutex guards the topology view (node states,
// ring, learned route cache); request handling takes it shared and
// briefly, never across a network call. Per-node and gateway counters are
// atomics. The prober is a single goroutine (plus one goroutine per node
// per round); SetTopology may be called from any goroutine, including
// concurrently with request traffic. The gateway keeps no durable state —
// everything it knows is re-learned from probes and response headers, so
// restarting it (or running several behind a TCP balancer) is always
// safe.
package gate

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/repl"
	"repro/internal/vclock"
)

// NodeConfig names one platform node the gateway fronts. Name must match
// the node's name in the servers' -ring flag (ring hashing is over these
// names, and every router and allocator must agree on them); URL is the
// node's base URL, and for followers it must equal the -follow URL they
// were started with (the gateway associates followers to leaders by
// comparing it against the leader_url their healthz reports).
type NodeConfig struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Topology is the gateway's membership: every node it may route to.
// Roles are not configured — the prober discovers them, so a promotion or
// a restart with different flags changes routing without a config edit.
type Topology struct {
	Nodes []NodeConfig `json:"nodes"`
}

// Validate checks the topology: at least one node, unique non-empty
// names, parseable http(s) URLs.
func (t Topology) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("gate: topology has no nodes")
	}
	seen := make(map[string]struct{}, len(t.Nodes))
	for _, n := range t.Nodes {
		if n.Name == "" {
			return fmt.Errorf("gate: node with empty name (url %q)", n.URL)
		}
		if _, dup := seen[n.Name]; dup {
			return fmt.Errorf("gate: duplicate node name %q", n.Name)
		}
		seen[n.Name] = struct{}{}
		u, err := url.Parse(n.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("gate: node %q: bad url %q", n.Name, n.URL)
		}
	}
	return nil
}

// Options configure New. Topology is required; everything else defaults.
type Options struct {
	Topology Topology
	// MaxLag is the read fan-out threshold: a follower serves reads only
	// while its replication lag (committed leader events not yet applied)
	// is at or below this. Default 256.
	MaxLag uint64
	// ProbeInterval is the healthz polling cadence. Default 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one healthz probe. Default 2s.
	ProbeTimeout time.Duration
	// HTTP is the forwarding client. A copy is used with automatic
	// redirect-following disabled (the gateway follows 307s itself, so it
	// can refresh its ring view when one appears). Nil builds a client
	// with a 30s timeout.
	HTTP *http.Client
	// Metrics, when non-nil, receives the gateway's counters: per-route ×
	// per-node relay counters plus closure views over the same atomics
	// /api/gate/stats reports (so the two surfaces cannot diverge). Nil
	// disables metrics at zero cost.
	Metrics *obs.Registry
	// Clock paces the background prober. Nil defaults to wall time; the
	// simulation harness injects its vclock.Sim so probe cadence advances
	// in virtual time.
	Clock vclock.Clock
	// Rand jitters each probe interval by ±10% so a fleet of gateways
	// sharing a start time does not probe every node in lockstep. Nil
	// disables jitter; inject a vclock.SeededRand for a probe schedule
	// reproducible from a seed.
	Rand vclock.Rand
	// MaxBodyBytes caps a proxied request body. The gateway reads each
	// body whole before the first attempt and replays the same bytes on
	// every ring successor and followed 307, so this bounds the memory
	// one in-flight request holds. Bodies over the cap are rejected with
	// 413 before any node sees a byte. Raise it when single batched
	// AddTasks payloads exceed the default (DefaultMaxBodyBytes, 32 MiB);
	// the reprowd-gate -max-body-buffer flag sets it. Zero or negative
	// means the default.
	MaxBodyBytes int64
	// ReadCache enables the frontier-tagged read cache: single-partition
	// GET responses carrying platform.HeaderFrontier are kept and served
	// straight from the gateway — touching no node — until the partition's
	// frontier advances past the cached tag (observed by a probe, or
	// immediately by a write the gateway itself relayed). Staleness is
	// bounded by ProbeInterval for writes that bypass this gateway — the
	// same class of bound follower reads already have via MaxLag.
	ReadCache bool
	// AutoFailover arms the elector: when a partition's leader has been
	// unreachable for FailoverAfter (or is reachable but fenced), the
	// gateway promotes the partition's most-caught-up eligible follower
	// with a freshly minted epoch token, and fences any stale leader that
	// resurfaces. Off by default — a gateway must be told it may promote.
	AutoFailover bool
	// FailoverAfter is how long a partition leader must be continuously
	// unreachable before the elector acts. Shorter means faster recovery
	// but more risk of promoting through a network blip the old leader
	// would have survived (the fencing token keeps that safe, but it
	// still deposes a healthy leader). Default 3s.
	FailoverAfter time.Duration
	// FailoverMaxLag is the election eligibility bound: a follower
	// qualifies as promotion candidate only if its applied sequence plus
	// this slack reaches the dead leader's last probed frontier. Default 0
	// — only a follower that had everything the leader acked may take
	// over, so an election can never lose an acked write by itself.
	FailoverMaxLag uint64
}

func (o Options) withDefaults() Options {
	if o.MaxLag == 0 {
		o.MaxLag = DefaultMaxLag
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.Clock == nil {
		o.Clock = vclock.NewWall()
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if o.FailoverAfter <= 0 {
		o.FailoverAfter = DefaultFailoverAfter
	}
	return o
}

// DefaultMaxLag is the default follower read-lag threshold.
const DefaultMaxLag uint64 = 256

// DefaultFailoverAfter is how long a leader must be continuously
// unreachable before the elector deposes it (Options.FailoverAfter).
const DefaultFailoverAfter = 3 * time.Second

// maxRoutes bounds the learned owner cache; at the cap it resets (it is
// soft state — routing falls back to ring lookup + discovery).
const maxRoutes = 1 << 16

// nodeState is the gateway's live view of one node: config plus the last
// probe's verdict and per-node traffic counters. Probe fields are guarded
// by Gateway.mu; counters are atomics (bumped on the request path without
// the lock).
type nodeState struct {
	cfg nodeConfigNorm

	// Last probe view (Gateway.mu).
	role      string // platform role; "" until first successful probe
	ready     bool
	lag       uint64
	applied   uint64 // journal frontier (ReplStats AppliedSeq) at last probe
	leaderURL string // normalized; follower association
	reachable bool
	lastErr   string
	partition string              // probed ring partition; "" before identity-aware nodes
	epoch     platform.EpochToken // probed fencing token (leader: own; follower: observed)
	fenced    bool                // probed: node knows it was deposed
	downSince time.Time           // start of the current unreachable stretch; zero while reachable

	reads    atomic.Uint64
	writes   atomic.Uint64
	failures atomic.Uint64
}

// partitionName is the ring partition a node belongs to: what its probe
// reported, else its own name (pre-identity nodes — a leader's partition
// has always been named after it).
func (n *nodeState) partitionName() string {
	if n.partition != "" {
		return n.partition
	}
	return n.cfg.name
}

// nodeConfigNorm is a NodeConfig with its URL normalized (no trailing
// slash) for comparisons against healthz leader_url values.
type nodeConfigNorm struct {
	name string
	url  string
}

func normalize(cfg NodeConfig) nodeConfigNorm {
	return nodeConfigNorm{name: cfg.Name, url: strings.TrimRight(cfg.URL, "/")}
}

// Stats are the gateway-wide routing counters (all atomics; read them
// through Snapshot).
type Stats struct {
	WritesRouted  atomic.Uint64 // write requests relayed to a leader
	ReadsFollower atomic.Uint64 // reads served by a follower
	ReadsLeader   atomic.Uint64 // reads that fell back to a leader
	Fanouts       atomic.Uint64 // cross-partition merge reads (list/find/stats)
	Retries       atomic.Uint64 // attempts moved to the next candidate
	Misses        atomic.Uint64 // 404s that triggered owner discovery
	Redirects     atomic.Uint64 // 307s followed (and probed)
	Reloads       atomic.Uint64 // topology replacements
	Probes        atomic.Uint64 // completed probe rounds
	CacheHits     atomic.Uint64 // reads served from the frontier cache
	CacheMisses   atomic.Uint64 // cacheable reads that had to touch a node
	Elections     atomic.Uint64 // followers promoted by the elector
	Fences        atomic.Uint64 // stale leaders fenced by the elector
}

// StatsSnapshot is the JSON shape of Stats.
type StatsSnapshot struct {
	WritesRouted  uint64 `json:"writes_routed"`
	ReadsFollower uint64 `json:"reads_follower"`
	ReadsLeader   uint64 `json:"reads_leader"`
	Fanouts       uint64 `json:"fanouts"`
	Retries       uint64 `json:"retries"`
	Misses        uint64 `json:"misses"`
	Redirects     uint64 `json:"redirects_followed"`
	Reloads       uint64 `json:"topology_reloads"`
	Probes        uint64 `json:"probe_rounds"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	Elections     uint64 `json:"elections"`
	Fences        uint64 `json:"fences"`
}

// NodeStatus is one node's view in Status.
type NodeStatus struct {
	Name        string `json:"name"`
	URL         string `json:"url"`
	Role        string `json:"role,omitempty"`
	Ready       bool   `json:"ready"`
	Reachable   bool   `json:"reachable"`
	Lag         uint64 `json:"lag,omitempty"`
	AppliedSeq  uint64 `json:"applied_seq,omitempty"`
	LeaderURL   string `json:"leader_url,omitempty"`
	LastError   string `json:"last_error,omitempty"`
	Partition   string `json:"partition,omitempty"`
	Epoch       uint64 `json:"epoch,omitempty"`
	EpochHolder string `json:"epoch_holder,omitempty"`
	Fenced      bool   `json:"fenced,omitempty"`
	Reads       uint64 `json:"reads"`
	Writes      uint64 `json:"writes"`
	Failures    uint64 `json:"failures"`
}

// Status is the gateway's own health/stats view (GET /api/healthz and
// /api/gate/stats).
type Status struct {
	Role  string        `json:"role"` // always "gateway"
	Ready bool          `json:"ready"`
	Nodes []NodeStatus  `json:"nodes"`
	Stats StatsSnapshot `json:"stats"`
}

// Gateway routes the platform REST surface across a partitioned
// deployment. Create with New, mount as an http.Handler, Close when done.
type Gateway struct {
	opts    Options
	hc      *http.Client // forwarding; CheckRedirect disabled
	probeHC *http.Client // probing; short timeout

	mu          sync.RWMutex
	nodes       map[string]*nodeState          // by name
	order       []string                       // config order, for stable status output
	ring        *repl.Ring                     // current partitions (names of leader lineages)
	routes      map[string]string              // learned scope ("p/5","t/9","n/<name>") → partition name
	partLeaders map[string]*nodeState          // partition → the node currently serving it as leader
	partTokens  map[string]platform.EpochToken // partition → max fencing token ever observed or minted

	electMu sync.Mutex // serializes elector passes (they make network calls)

	cache *readCache // frontier-tagged read cache; nil when disabled

	rr    atomic.Uint64 // follower round-robin cursor
	stats Stats
	m     gateMetrics

	probeKick chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// New builds a gateway over opts.Topology and runs one synchronous probe
// round so routing works immediately when every node is up. Nodes that
// are down stay unknown until the background prober reaches them; the
// gateway still starts, and while any configured node has never been
// probed it answers retryable 502s — never typed 404s — for requests it
// cannot place definitively (the unprobed node may own the partition).
func New(opts Options) (*Gateway, error) {
	opts = opts.withDefaults()
	if err := opts.Topology.Validate(); err != nil {
		return nil, err
	}
	hc := opts.HTTP
	if hc == nil {
		// A gateway multiplexes many client connections onto few backends;
		// the transport default of 2 idle conns per host would reconnect
		// on nearly every concurrent request.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 256
		tr.MaxIdleConnsPerHost = 128
		hc = &http.Client{Timeout: 30 * time.Second, Transport: tr}
	}
	fwd := *hc
	fwd.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
	g := &Gateway{
		opts:        opts,
		hc:          &fwd,
		probeHC:     &http.Client{Timeout: opts.ProbeTimeout, Transport: hc.Transport},
		nodes:       make(map[string]*nodeState),
		ring:        repl.NewRing(0),
		routes:      make(map[string]string),
		partLeaders: make(map[string]*nodeState),
		partTokens:  make(map[string]platform.EpochToken),
		probeKick:   make(chan struct{}, 1),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	if opts.ReadCache {
		g.cache = newReadCache()
	}
	g.installTopology(opts.Topology)
	g.m.init(opts.Metrics, g)
	g.probeRound()
	go g.loop()
	return g, nil
}

// gateMetrics are the gateway's registry instruments. Vec counters cover
// the per-route × per-node breakdown; the gateway-wide totals are
// registered as closure views over the very atomics Snapshot reports, so
// /metrics and /api/gate/stats can never disagree. All fields are
// nil-safe no-ops when no registry is configured.
type gateMetrics struct {
	requests  *obs.CounterVec // relayed requests, by route class × serving node
	errors    *obs.CounterVec // 5xx responses to clients, by route class
	failures  *obs.CounterVec // failed forward attempts, by node
	cacheHit  *obs.Histogram  // latency of reads served from the frontier cache
	cacheMiss *obs.Histogram  // latency of cacheable reads that touched a node
}

func (m *gateMetrics) init(reg *obs.Registry, g *Gateway) {
	if reg == nil {
		return
	}
	m.requests = reg.CounterVec("reprowd_gate_requests_total",
		"Requests relayed to a backend, by route class and serving node.",
		"route", "node")
	m.errors = reg.CounterVec("reprowd_gate_errors_total",
		"Gateway responses with status >= 500, by route class.", "route")
	m.failures = reg.CounterVec("reprowd_gate_node_failures_total",
		"Forward attempts that failed (transport error or retryable status), by node.",
		"node")
	reg.CounterFunc("reprowd_gate_writes_routed_total",
		"Write requests relayed to a leader.", g.stats.WritesRouted.Load)
	reg.CounterFunc("reprowd_gate_reads_follower_total",
		"Reads served by a follower.", g.stats.ReadsFollower.Load)
	reg.CounterFunc("reprowd_gate_reads_leader_total",
		"Reads that fell back to a leader.", g.stats.ReadsLeader.Load)
	reg.CounterFunc("reprowd_gate_fanouts_total",
		"Cross-partition merge reads (list/find/stats).", g.stats.Fanouts.Load)
	reg.CounterFunc("reprowd_gate_retries_total",
		"Attempts moved to the next candidate node.", g.stats.Retries.Load)
	reg.CounterFunc("reprowd_gate_misses_total",
		"Typed 404s that triggered owner discovery.", g.stats.Misses.Load)
	reg.CounterFunc("reprowd_gate_redirects_total",
		"307 redirects followed (each triggers a re-probe).", g.stats.Redirects.Load)
	reg.CounterFunc("reprowd_gate_topology_reloads_total",
		"Topology replacements via SetTopology.", g.stats.Reloads.Load)
	reg.CounterFunc("reprowd_gate_probe_rounds_total",
		"Completed health-probe rounds.", g.stats.Probes.Load)
	reg.CounterFunc("reprowd_gate_cache_hits_total",
		"Reads served from the frontier cache, touching no node.", g.stats.CacheHits.Load)
	reg.CounterFunc("reprowd_gate_cache_misses_total",
		"Cacheable reads that had to be forwarded to a node.", g.stats.CacheMisses.Load)
	reg.CounterFunc("reprowd_gate_elections_total",
		"Followers promoted to leader by this gateway's elector.", g.stats.Elections.Load)
	reg.CounterFunc("reprowd_gate_fences_total",
		"Stale leaders fenced by this gateway's elector.", g.stats.Fences.Load)
	m.cacheHit = reg.Histogram("reprowd_gate_cache_hit_seconds",
		"Latency of reads served from the frontier cache.", nil)
	m.cacheMiss = reg.Histogram("reprowd_gate_cache_miss_seconds",
		"Latency of cacheable reads that were forwarded to a node.", nil)
	reg.GaugeFunc("reprowd_gate_nodes",
		"Nodes in the configured topology.", func() float64 {
			g.mu.RLock()
			defer g.mu.RUnlock()
			return float64(len(g.nodes))
		})
	reg.GaugeFunc("reprowd_gate_ring_leaders",
		"Leaders currently in the routing ring.", func() float64 {
			g.mu.RLock()
			defer g.mu.RUnlock()
			return float64(len(g.ring.Nodes()))
		})
}

// bookFailure attributes one failed forward attempt to a node, on both
// the JSON-stats atomic and the metrics vec.
func (g *Gateway) bookFailure(n *nodeState) {
	if n == nil {
		return
	}
	n.failures.Add(1)
	g.m.failures.With(n.cfg.name).Inc()
}

// Close stops the prober. In-flight requests finish; the gateway keeps
// answering with its last view (it is stateless — closing is only about
// the background goroutine).
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		close(g.stop)
		<-g.done
	})
}

// installTopology swaps the membership in, preserving the probe view and
// counters of nodes whose name+URL survived. Callers must not hold g.mu.
func (g *Gateway) installTopology(t Topology) {
	g.mu.Lock()
	defer g.mu.Unlock()
	nodes := make(map[string]*nodeState, len(t.Nodes))
	order := make([]string, 0, len(t.Nodes))
	for _, cfg := range t.Nodes {
		norm := normalize(cfg)
		if old, ok := g.nodes[norm.name]; ok && old.cfg.url == norm.url {
			nodes[norm.name] = old
		} else {
			nodes[norm.name] = &nodeState{cfg: norm}
		}
		order = append(order, norm.name)
	}
	g.nodes = nodes
	g.order = order
	// Learned routes may point at removed nodes; targetsFor filters those
	// out lazily, so the cache can stay.
	g.rebuildRingLocked()
}

// SetTopology replaces the membership (POST /api/gate/topology and the
// reprowd-gate -topology file reload both land here) and synchronously
// probes the new view so routing is correct when it returns. Safe under
// concurrent traffic: requests between the swap and the probe's end see
// newly added nodes as unknown and keep routing around them.
func (g *Gateway) SetTopology(t Topology) error {
	if err := t.Validate(); err != nil {
		return err
	}
	g.installTopology(t)
	g.stats.Reloads.Add(1)
	g.probeRound()
	return nil
}

// Topology returns the current membership, in configuration order.
func (g *Gateway) Topology() Topology {
	g.mu.RLock()
	defer g.mu.RUnlock()
	t := Topology{Nodes: make([]NodeConfig, 0, len(g.order))}
	for _, name := range g.order {
		n := g.nodes[name]
		t.Nodes = append(t.Nodes, NodeConfig{Name: n.cfg.name, URL: n.cfg.url})
	}
	return t
}

// loop is the background prober: poll every node each interval, or
// immediately when a request path kicks it (a 307, a transport failure).
// The cadence is a re-armed clock.After rather than a ticker — same
// non-backlogging behavior, but it runs on the injected clock (a
// vclock.Sim under simulation) and picks up fresh jitter every round.
func (g *Gateway) loop() {
	defer close(g.done)
	for {
		select {
		case <-g.stop:
			return
		case <-g.opts.Clock.After(vclock.Jitter(g.opts.Rand, g.opts.ProbeInterval, 0.10)):
		case <-g.probeKick:
		}
		g.probeRound()
	}
}

// kickProbe schedules an immediate probe round (coalesced).
func (g *Gateway) kickProbe() {
	select {
	case g.probeKick <- struct{}{}:
	default:
	}
}

// probeRound polls every node's healthz concurrently and folds the
// results into the view, rebuilding the leader ring if roles moved.
func (g *Gateway) probeRound() {
	g.mu.RLock()
	targets := make([]*nodeState, 0, len(g.nodes))
	for _, n := range g.nodes {
		targets = append(targets, n)
	}
	g.mu.RUnlock()

	type verdict struct {
		n   *nodeState
		st  platform.ReplStats
		err error
	}
	results := make(chan verdict, len(targets))
	for _, n := range targets {
		go func(n *nodeState) {
			st, err := repl.ProbeHealth(g.probeHC, n.cfg.url)
			results <- verdict{n, st, err}
		}(n)
	}
	// Collect every verdict BEFORE taking the lock: a dead node makes its
	// probe wait out ProbeTimeout, and holding the exclusive lock that
	// long would stall all request routing exactly during an outage.
	verdicts := make([]verdict, 0, len(targets))
	for range targets {
		verdicts = append(verdicts, <-results)
	}
	now := g.opts.Clock.Now()
	g.mu.Lock()
	for _, v := range verdicts {
		// The node may have been removed by a concurrent reload; updating
		// its detached state is harmless.
		if v.err != nil {
			v.n.reachable = false
			v.n.lastErr = v.err.Error()
			if v.n.downSince.IsZero() {
				v.n.downSince = now
			}
			continue
		}
		v.n.reachable = true
		v.n.downSince = time.Time{}
		v.n.lastErr = v.st.LastError
		v.n.role = v.st.Role
		v.n.ready = v.st.Ready
		v.n.lag = v.st.Lag
		v.n.applied = v.st.AppliedSeq
		v.n.leaderURL = strings.TrimRight(v.st.LeaderURL, "/")
		v.n.partition = v.st.Partition
		v.n.epoch = platform.EpochToken{Epoch: v.st.Epoch, Holder: v.st.EpochHolder}
		v.n.fenced = v.st.Fenced
	}
	g.rebuildRingLocked()
	g.mu.Unlock()
	g.stats.Probes.Add(1)
	if g.opts.AutoFailover {
		g.elect(now)
	}
}

// isLeaderRole reports whether a probed role accepts writes. A
// "standalone" node (no replication attached) is a single-partition
// leader as far as routing is concerned.
func isLeaderRole(role string) bool {
	return role == repl.RoleLeader || role == "standalone"
}

// rebuildRingLocked rebuilds the partition view after a probe round: the
// max fencing token ever seen per partition (monotonic — probe staleness
// never lowers it), the node currently serving each partition as leader,
// and the routing ring.
//
// The ring hashes PARTITION names, not node names: a failover replaces
// which node serves a partition, and keying the ring by partition means a
// promotion moves zero keyspace — the successor simply answers for the
// same ring member its predecessor did. (Pre-epoch nodes report no
// partition and fall back to their own name, which is the same thing for
// a leader that was never replaced.)
//
// When two leader-role nodes claim one partition (a deposed leader
// resurfacing beside its successor), the one with the newer token wins;
// fenced nodes lose to unfenced ones outright; reachability breaks ties.
// Membership is by role, not by health: a leader that stopped answering
// probes keeps its partition (requests walk to ring successors), because
// evicting it would remap ~1/n of the keyspace on every blip. Callers
// hold g.mu.
func (g *Gateway) rebuildRingLocked() {
	leaders := make(map[string]*nodeState, len(g.nodes))
	for _, n := range g.nodes {
		// Every node's observed token lifts the partition floor — a
		// follower that saw epoch 4 proves epoch 4 exists even if no live
		// leader reports it.
		if p := n.partition; p != "" && g.partTokens[p].Less(n.epoch) {
			g.partTokens[p] = n.epoch
		}
		if !isLeaderRole(n.role) {
			continue
		}
		p := n.partitionName()
		if g.partTokens[p].Less(n.epoch) {
			g.partTokens[p] = n.epoch
		}
		if best, ok := leaders[p]; !ok || betterLeader(n, best) {
			leaders[p] = n
		}
	}
	g.partLeaders = leaders
	parts := make([]string, 0, len(leaders))
	for p := range leaders {
		parts = append(parts, p)
	}
	have := g.ring.Nodes()
	if len(have) == len(parts) {
		same := true
		set := make(map[string]struct{}, len(have))
		for _, n := range have {
			set[n] = struct{}{}
		}
		for _, n := range parts {
			if _, ok := set[n]; !ok {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	g.ring = repl.NewRing(0, parts...)
}

// betterLeader ranks two leader-role nodes claiming the same partition:
// unfenced beats fenced, then the newer fencing token, then reachability,
// then name (pure determinism).
func betterLeader(a, b *nodeState) bool {
	if a.fenced != b.fenced {
		return !a.fenced
	}
	if a.epoch != b.epoch {
		return b.epoch.Less(a.epoch)
	}
	if a.reachable != b.reachable {
		return a.reachable
	}
	return a.cfg.name < b.cfg.name
}

// partLeaderLocked resolves a partition to the node serving it. Callers
// hold g.mu.
func (g *Gateway) partLeaderLocked(p string) *nodeState {
	return g.partLeaders[p]
}

// partitionToken is the max fencing token the gateway has observed or
// minted for a partition — what write attempts are stamped with.
func (g *Gateway) partitionToken(p string) platform.EpochToken {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.partTokens[p]
}

// Snapshot reports the gateway's health, per-node views and counters.
func (g *Gateway) Snapshot() Status {
	g.mu.RLock()
	defer g.mu.RUnlock()
	st := Status{Role: "gateway"}
	for _, name := range g.order {
		n := g.nodes[name]
		st.Nodes = append(st.Nodes, NodeStatus{
			Name:        n.cfg.name,
			URL:         n.cfg.url,
			Role:        n.role,
			Ready:       n.ready,
			Reachable:   n.reachable,
			Lag:         n.lag,
			AppliedSeq:  n.applied,
			LeaderURL:   n.leaderURL,
			LastError:   n.lastErr,
			Partition:   n.partition,
			Epoch:       n.epoch.Epoch,
			EpochHolder: n.epoch.Holder,
			Fenced:      n.fenced,
			Reads:       n.reads.Load(),
			Writes:      n.writes.Load(),
			Failures:    n.failures.Load(),
		})
		if isLeaderRole(n.role) && n.reachable && n.ready && !n.fenced {
			st.Ready = true
		}
	}
	st.Stats = StatsSnapshot{
		WritesRouted:  g.stats.WritesRouted.Load(),
		ReadsFollower: g.stats.ReadsFollower.Load(),
		ReadsLeader:   g.stats.ReadsLeader.Load(),
		Fanouts:       g.stats.Fanouts.Load(),
		Retries:       g.stats.Retries.Load(),
		Misses:        g.stats.Misses.Load(),
		Redirects:     g.stats.Redirects.Load(),
		Reloads:       g.stats.Reloads.Load(),
		Probes:        g.stats.Probes.Load(),
		CacheHits:     g.stats.CacheHits.Load(),
		CacheMisses:   g.stats.CacheMisses.Load(),
		Elections:     g.stats.Elections.Load(),
		Fences:        g.stats.Fences.Load(),
	}
	return st
}

// --- frontier-tagged read cache ---

// Cache bounds: entries beyond maxCacheEntries reset the map (soft state,
// like the route cache — cheap reset beats LRU bookkeeping); a response
// body over maxCacheBody is relayed but not kept.
const (
	maxCacheEntries = 1024
	maxCacheBody    = 1 << 20
)

// cacheEntry is one cached single-partition read: the complete response
// the partition gave while its journal frontier stood at `frontier` and
// its gateway-relayed write count stood at `epoch`.
type cacheEntry struct {
	partition string
	frontier  uint64
	epoch     uint64
	header    http.Header
	body      []byte
}

func (e *cacheEntry) relay(w http.ResponseWriter) {
	for k, vs := range e.header {
		if k == obs.HeaderTrace {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(http.StatusOK)
	w.Write(e.body)
}

// readCache holds frontier-tagged responses plus a per-partition write
// epoch: a counter bumped every time this gateway relays a write to the
// partition. The gateway's own writes invalidate via the epoch the moment
// the write response returns — no probe round-trip, and no reliance on
// the write response's frontier tag, which under group commit may still
// read the pre-flush sequence when the write was fast-acked. Frontier
// tags (plus probe-observed applied sequences) only matter for writes
// that bypassed this gateway.
type readCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	epochs  map[string]uint64
}

func newReadCache() *readCache {
	return &readCache{
		entries: make(map[string]*cacheEntry),
		epochs:  make(map[string]uint64),
	}
}

func (c *readCache) lookup(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return e, ok
}

// store keeps e unless a write to its partition was relayed while the
// response was in flight (the epoch moved past the pre-fetch snapshot):
// such a body may predate the write and must not enter the cache.
func (c *readCache) store(key string, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epochs[e.partition] != e.epoch {
		return
	}
	if len(c.entries) >= maxCacheEntries {
		c.entries = make(map[string]*cacheEntry)
	}
	c.entries[key] = e
}

// bumpEpoch invalidates every cached entry of the partition: they were
// all stored at an earlier epoch.
func (c *readCache) bumpEpoch(partition string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epochs[partition]++
}

func (c *readCache) epochOf(partition string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epochs[partition]
}

// epochSnapshot captures every partition's write epoch. Taken before a
// cache-miss fetch is forwarded: an entry is only stored (and only reads
// fresh) while its partition's epoch still matches, so a write relayed
// concurrently with the fetch can never leave a pre-write body cached.
func (c *readCache) epochSnapshot() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := make(map[string]uint64, len(c.epochs))
	for k, v := range c.epochs {
		snap[k] = v
	}
	return snap
}

// cacheFresh reports whether a cached read still reflects its partition:
// no write relayed through this gateway has bumped the partition's epoch
// past the entry's, and no probe has seen the partition's leader apply
// past the entry's frontier tag (the out-of-band write signal, stale by
// at most one probe interval). An entry served by a lagging follower tags
// below the leader's frontier and therefore never reads as fresh — the
// cache can only ever serve what a fully caught-up node answered.
func (g *Gateway) cacheFresh(e *cacheEntry) bool {
	if e.epoch != g.cache.epochOf(e.partition) {
		return false
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := g.partLeaderLocked(e.partition)
	if n == nil || n.fenced {
		return false
	}
	return n.applied <= e.frontier
}

// --- the elector ---

// electAction is one decision the elector computed under the read lock
// and executes outside it (both actions are network calls).
type electAction struct {
	partition string
	node      *nodeState          // promote: the candidate; fence: the stale leader
	tok       platform.EpochToken // promote: the mint; fence: the partition max
	promote   bool
}

// elect is the failover pass run after every probe round when
// Options.AutoFailover is set. Two jobs, in safety order:
//
//   - Fence: a reachable, unfenced leader holding a token older than its
//     partition's observed max was deposed while it was away and must be
//     told before it can accept a write some client still sends it
//     directly. (Writes through this gateway are already safe — they are
//     stamped with the partition max and the stale leader self-fences on
//     first contact — fencing here closes the direct-client path too.)
//   - Promote: a partition whose leader has been continuously unreachable
//     for FailoverAfter (or is back but fenced) gets its most-caught-up
//     eligible follower promoted under a freshly minted token strictly
//     above everything observed. The mint is recorded in partTokens
//     whether or not the RPC succeeds: a promotion whose response was
//     lost may still have taken effect, and burning the token means the
//     retry mints strictly higher instead of dueling with its own ghost.
//
// electMu serializes passes end to end — a SetTopology-triggered round
// racing the prober's round must not promote two followers for one
// partition. Cross-gateway duels remain possible by design and resolve
// through the token order: the higher mint wins, the loser is fenced.
func (g *Gateway) elect(now time.Time) {
	g.electMu.Lock()
	defer g.electMu.Unlock()
	for _, a := range g.electActions(now) {
		if a.promote {
			st, err := repl.PromoteFollower(g.probeHC, a.node.cfg.url, a.tok)
			g.mu.Lock()
			if g.partTokens[a.partition].Less(a.tok) {
				g.partTokens[a.partition] = a.tok
			}
			if err == nil {
				// Fold the node's post-promotion self-report in directly:
				// routing flips to the new leader now, not a probe interval
				// later.
				a.node.role = st.Role
				a.node.ready = st.Ready
				a.node.applied = st.AppliedSeq
				a.node.epoch = platform.EpochToken{Epoch: st.Epoch, Holder: st.EpochHolder}
				a.node.fenced = st.Fenced
				if st.Partition != "" {
					a.node.partition = st.Partition
				} else {
					a.node.partition = a.partition
				}
				g.rebuildRingLocked()
			}
			g.mu.Unlock()
			if err == nil {
				g.stats.Elections.Add(1)
				g.kickProbe()
			}
		} else {
			if _, err := repl.FenceNode(g.probeHC, a.node.cfg.url, a.tok); err == nil {
				g.mu.Lock()
				a.node.fenced = true
				if g.partTokens[a.partition].Less(a.tok) {
					g.partTokens[a.partition] = a.tok
				}
				g.rebuildRingLocked()
				g.mu.Unlock()
				g.stats.Fences.Add(1)
			}
		}
	}
}

// electActions computes the elector's decisions under the read lock.
func (g *Gateway) electActions(now time.Time) []electAction {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var acts []electAction
	for p, lead := range g.partLeaders {
		maxTok := g.partTokens[p]
		live := false
		for _, n := range g.nodes {
			if !isLeaderRole(n.role) || n.partitionName() != p {
				continue
			}
			if n.reachable && !n.fenced && n.epoch.Less(maxTok) {
				// Deposed and resurfaced; doesn't know yet.
				acts = append(acts, electAction{partition: p, node: n, tok: maxTok})
				continue
			}
			if n.reachable && n.ready && !n.fenced {
				live = true
			}
		}
		if live {
			continue
		}
		// No live leader. Depose only on proof (the best claimant is back
		// and fenced) or after the full unreachability window — a probe
		// blip must not cost a healthy leader its partition.
		deposed := lead.reachable && lead.fenced
		expired := !lead.reachable && !lead.downSince.IsZero() &&
			now.Sub(lead.downSince) >= g.opts.FailoverAfter
		if !deposed && !expired {
			continue
		}
		var cand *nodeState
		for _, n := range g.nodes {
			if n.role != repl.RoleFollower || !n.reachable {
				continue
			}
			if !n.ready {
				// Readiness means "covered the frontier seen at first
				// contact" — a follower whose leader died before its first
				// successful poll reports unready forever. When the
				// partition's history is provably empty (the dead leader
				// was last probed at applied 0 and never took a proxied
				// write, and the candidate holds nothing either), there is
				// nothing to have missed: promote rather than deadlock the
				// partition.
				if lead.applied != 0 || lead.writes.Load() != 0 || n.applied != 0 {
					continue
				}
			}
			if n.partition != p && n.leaderURL != lead.cfg.url {
				continue
			}
			// Eligibility: the candidate must hold (modulo the configured
			// slack) everything the dead leader was last seen to have
			// committed — promoting a lagging follower would orphan acked
			// writes on a timeline nobody serves.
			if n.applied+g.opts.FailoverMaxLag < lead.applied {
				continue
			}
			if cand == nil || n.applied > cand.applied ||
				(n.applied == cand.applied && n.cfg.name < cand.cfg.name) {
				cand = n
			}
		}
		if cand == nil {
			continue // nobody eligible; retry next round
		}
		mint := platform.EpochToken{Epoch: maxTok.Epoch + 1, Holder: cand.cfg.name}
		if mint.Epoch <= cand.epoch.Epoch {
			// The candidate has observed a newer epoch than any probe
			// reported; mint above its word too or the promotion bounces
			// off ErrEpochBehind.
			mint.Epoch = cand.epoch.Epoch + 1
		}
		acts = append(acts, electAction{partition: p, node: cand, tok: mint, promote: true})
	}
	return acts
}

// learnRoute caches scope → owning partition name.
func (g *Gateway) learnRoute(scope, leader string) {
	if scope == "" || leader == "" {
		return
	}
	g.mu.Lock()
	if len(g.routes) >= maxRoutes {
		g.routes = make(map[string]string)
	}
	g.routes[scope] = leader
	g.mu.Unlock()
}
