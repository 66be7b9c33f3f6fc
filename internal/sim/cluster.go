// Package sim is the deterministic cluster simulator: a whole reprowd
// deployment — ring-partitioned leaders, their followers, a ring-routed
// gateway — assembled in one process over an in-memory network, paced by
// one shared vclock.Sim. Time is a scenario input: a 30-second failover
// (lease TTL drain, probe cadence, reconnect backoff and all) runs in
// microseconds of wall time, and because every clock read, retry jitter
// and probe schedule draws from the injected clock and seeded Rand, a
// scenario replays identically from its seed.
//
// The determinism contract (see docs/TESTING.md) is about state, not
// goroutine interleavings: invariants are asserted at quiesce points —
// every acknowledged write drained, every follower caught up — where the
// result is a pure function of the scenario script. At quiesce, replicas
// must be byte-identical to their leader, acknowledged writes must exist
// exactly once, and each ring partition must have exactly one live
// leader.
package sim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/gate"
	"repro/internal/platform"
	"repro/internal/repl"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Config sizes a simulated cluster. Only Dir is required.
type Config struct {
	// Dir is the scratch directory for node stores (each node gets a
	// subdirectory). Tests pass t.TempDir().
	Dir string
	// Leaders is the number of ring-partitioned leaders, named l1..lN.
	// Default 1.
	Leaders int
	// FollowersPerLeader attaches that many read replicas to each leader,
	// named f1..fM round-robin over the leaders. Default 1.
	FollowersPerLeader int
	// Gateway fronts the cluster with a ring-routed gate.Gateway on host
	// "gw".
	Gateway bool
	// ReadCache enables the gateway's frontier read cache.
	ReadCache bool
	// CheckpointEvery is each leader's snapshot cadence in events
	// (default 200; 0 disables policy cuts, leaving CheckpointNow).
	CheckpointEvery uint64
	// LeaseTTL is the scheduler lease, in simulated time. Default 30s.
	LeaseTTL time.Duration
	// PollWait is the followers' long-poll window, in simulated time.
	// Default 2s.
	PollWait time.Duration
	// ProbeInterval is the gateway's probe cadence, in simulated time.
	// Default 100ms.
	ProbeInterval time.Duration
	// MaxLag is the gateway's follower read-lag threshold.
	MaxLag uint64
	// AutoFailover turns on the gateway's elector: a dead partition leader
	// is detected by the prober and the most-caught-up follower is
	// promoted with a fresh fencing token. Requires Gateway.
	AutoFailover bool
	// FailoverAfter is how long the elector lets a leader stay unreachable
	// before promoting over it. Default 300ms (three probe intervals).
	FailoverAfter time.Duration
	// FailoverMaxLag is the elector's candidate eligibility slack: a
	// follower may trail the leader's last probed frontier by this many
	// events and still be promoted. Default 0 — fully caught up only.
	FailoverMaxLag uint64
	// SyncWrites runs every store at SyncAlways so a write is durable
	// before it is acknowledged. Disk-fault scripts require it: the
	// injected fault then only ever hits writes that were never acked, so
	// losing them to the fault cannot violate ack safety.
	SyncWrites bool
}

func (c Config) withDefaults() Config {
	if c.Leaders <= 0 {
		c.Leaders = 1
	}
	if c.FollowersPerLeader < 0 {
		c.FollowersPerLeader = 0
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 200
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.PollWait <= 0 {
		c.PollWait = 2 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 100 * time.Millisecond
	}
	if c.FailoverAfter <= 0 {
		c.FailoverAfter = 300 * time.Millisecond
	}
	return c
}

// syncPolicy maps SyncWrites onto the storage sync mode every node uses.
func (c Config) syncPolicy() storage.SyncPolicy {
	if c.SyncWrites {
		return storage.SyncAlways
	}
	return storage.SyncNever
}

// Node is one simulated process: a leader (journal + store on disk under
// the cluster dir) or a follower (ephemeral replica, promotable). Its
// HTTP surface is the real platform server on the in-memory network.
type Node struct {
	Name string
	// Partition is the ring partition this node belongs to — the name of
	// the leader it was (or follows). Promotion keeps the partition.
	Partition string
	// IsLeader is the node's current role (promotion flips it).
	IsLeader bool
	// Fenced is true once the node has been deposed by a newer epoch
	// token (refreshed from live stats alongside IsLeader).
	Fenced bool
	// Alive is false after Kill until a restart.
	Alive bool

	dir    string
	leader string // follower only: the node it replicates from
	engine *platform.Engine
	rnode  *repl.Node
	j      *platform.Journal
	cp     *platform.Checkpointer
	db     *storage.DB
	fs     *storage.FaultFS
	hs     *http.Server
}

// FaultFS exposes the node's injectable disk-fault seam: Arm a fault and
// the node's next segment write fails that way, fail-stopping its store.
func (n *Node) FaultFS() *storage.FaultFS { return n.fs }

// Engine exposes the node's engine for direct scripted writes and state
// export.
func (n *Node) Engine() *platform.Engine { return n.engine }

// Journal exposes a leader's journal (nil on followers).
func (n *Node) Journal() *platform.Journal { return n.j }

// Follower exposes the repl follower half (nil on leaders and after
// promotion).
func (n *Node) Follower() *repl.Follower {
	if n.rnode == nil {
		return nil
	}
	return n.rnode.Follower()
}

// CheckpointNow forces a snapshot cut on a leader node.
func (n *Node) CheckpointNow() error {
	if n.cp == nil {
		return fmt.Errorf("sim: node %s has no checkpointer", n.Name)
	}
	return n.cp.CheckpointNow()
}

// frontier is a live leader's acknowledged journal position — the
// journal's length, not the stats frontier, because the stats frontier is
// fed by the committer's tap and briefly trails fast-acked appends;
// quiesce must chase everything that was acknowledged. Read through the
// repl node so it works for started leaders and promoted followers alike
// (a promotion's journal is owned inside the repl node).
func (n *Node) frontier() uint64 {
	if j := n.rnode.Journal(); j != nil {
		return j.Len()
	}
	return n.rnode.Stats().AppliedSeq
}

// Cluster is a running simulated deployment. All mutation methods are
// meant to be driven from one scenario goroutine; reads (engine state,
// stats) may happen anywhere.
type Cluster struct {
	Clock *vclock.Sim
	Rand  *vclock.SeededRand
	Net   *Network
	Ring  *repl.Ring

	cfg Config

	mu    sync.Mutex
	nodes map[string]*Node
	gw    *gate.Gateway
	gwHS  *http.Server
	gen   int // promotion-dir generation counter
}

// New assembles and starts a cluster: leaders first, then followers
// (each bootstraps over the in-memory wire), then the gateway (its
// initial synchronous probe round sees every node up). The seed fixes
// every schedule the cluster randomizes — reconnect jitter, probe
// jitter, packet drops.
func New(seed uint64, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("sim: Config.Dir is required")
	}
	c := &Cluster{
		Clock: vclock.NewSim(),
		Rand:  vclock.NewSeededRand(seed),
		cfg:   cfg,
		nodes: make(map[string]*Node),
	}
	c.Net = NewNetwork(c.Clock, c.Rand)
	leaderNames := make([]string, cfg.Leaders)
	for i := range leaderNames {
		leaderNames[i] = fmt.Sprintf("l%d", i+1)
	}
	c.Ring = repl.NewRing(0, leaderNames...)
	for _, name := range leaderNames {
		if err := c.startLeader(name); err != nil {
			c.Close()
			return nil, err
		}
	}
	for i := 0; i < cfg.FollowersPerLeader*cfg.Leaders; i++ {
		name := fmt.Sprintf("f%d", i+1)
		if err := c.startFollower(name, leaderNames[i%cfg.Leaders]); err != nil {
			c.Close()
			return nil, err
		}
	}
	if cfg.Gateway {
		if err := c.startGateway(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// owns builds the id-allocation filter for a partition, the same shape
// cmd/reprowd-server's -ring wiring produces.
func (c *Cluster) owns(partition string) func(int64) bool {
	return func(id int64) bool { return c.Ring.Lookup(id) == partition }
}

// startLeader opens (or reopens, on restart) a leader's store under the
// cluster dir and serves it on the network as name.
func (c *Cluster) startLeader(name string) error {
	dir := filepath.Join(c.cfg.Dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ffs := storage.NewFaultFS(nil)
	db, err := storage.Open(dir, storage.Options{Sync: c.cfg.syncPolicy(), FS: ffs})
	if err != nil {
		return fmt.Errorf("sim: %s store: %w", name, err)
	}
	j, err := platform.OpenJournal(db)
	if err != nil {
		db.Close()
		return fmt.Errorf("sim: %s journal: %w", name, err)
	}
	engine, err := platform.NewEngineOpts(platform.EngineOptions{
		Clock:    c.Clock,
		Journal:  j,
		LeaseTTL: c.cfg.LeaseTTL,
		OwnsID:   c.owns(name),
	})
	if err != nil {
		j.Close()
		db.Close()
		return fmt.Errorf("sim: %s engine: %w", name, err)
	}
	var cp *platform.Checkpointer
	if c.cfg.CheckpointEvery > 0 {
		cp, err = platform.NewCheckpointer(engine, platform.CheckpointOptions{
			EveryEvents:     c.cfg.CheckpointEvery,
			CompactMinBytes: 32 << 10,
		})
		if err != nil {
			j.Close()
			db.Close()
			return fmt.Errorf("sim: %s checkpointer: %w", name, err)
		}
	}
	rnode := repl.NewLeaderNodeClock(engine, j, db, c.Clock)
	// Identity attach: a leader whose persisted epoch token names another
	// holder was deposed while dead and comes back fenced.
	rnode.SetIdentity(name, name)
	srv := platform.NewServer(engine)
	srv.Handle("/api/repl/", rnode.Handler())
	node := &Node{
		Name: name, Partition: name, IsLeader: true, Fenced: rnode.Fenced(), Alive: true,
		dir: dir, engine: engine, rnode: rnode, j: j, cp: cp, db: db, fs: ffs,
	}
	if err := c.serve(node, srv); err != nil {
		rnode.Close()
		if cp != nil {
			cp.Close()
		}
		j.Close()
		db.Close()
		return err
	}
	c.mu.Lock()
	c.nodes[name] = node
	c.mu.Unlock()
	return nil
}

// startFollower bootstraps a replica of partition's original leader node
// and serves it as name.
func (c *Cluster) startFollower(name, partition string) error {
	return c.startFollowerOf(name, partition, partition)
}

// serve puts a node's HTTP surface on the network.
func (c *Cluster) serve(node *Node, h http.Handler) error {
	ls, err := c.Net.Listen(node.Name)
	if err != nil {
		return err
	}
	node.hs = &http.Server{Handler: h}
	go node.hs.Serve(ls)
	return nil
}

// startGateway builds the ring-routed gateway over every current node
// and serves it as "gw".
func (c *Cluster) startGateway() error {
	top := gate.Topology{}
	c.mu.Lock()
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	c.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		top.Nodes = append(top.Nodes, gate.NodeConfig{Name: name, URL: "http://" + name})
	}
	g, err := gate.New(gate.Options{
		Topology:       top,
		MaxLag:         c.cfg.MaxLag,
		ProbeInterval:  c.cfg.ProbeInterval,
		HTTP:           c.Net.HTTPClient("gw"),
		Clock:          c.Clock,
		Rand:           c.Rand,
		ReadCache:      c.cfg.ReadCache,
		AutoFailover:   c.cfg.AutoFailover,
		FailoverAfter:  c.cfg.FailoverAfter,
		FailoverMaxLag: c.cfg.FailoverMaxLag,
	})
	if err != nil {
		return fmt.Errorf("sim: gateway: %w", err)
	}
	ls, err := c.Net.Listen("gw")
	if err != nil {
		g.Close()
		return err
	}
	hs := &http.Server{Handler: g}
	go hs.Serve(ls)
	c.mu.Lock()
	c.gw = g
	c.gwHS = hs
	c.mu.Unlock()
	return nil
}

// Gateway exposes the gateway (nil when the config did not enable one).
func (c *Cluster) Gateway() *gate.Gateway {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gw
}

// GatewayClient returns a platform client speaking through the gateway,
// as an external user would.
func (c *Cluster) GatewayClient() *platform.HTTPClient {
	return platform.NewGatewayHTTPClient("http://gw", c.Net.HTTPClient("client"))
}

// Node returns a node by name (nil if unknown).
func (c *Cluster) Node(name string) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[name]
}

// Nodes returns every node, sorted by name.
func (c *Cluster) Nodes() []*Node {
	c.mu.Lock()
	out := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, n)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// refreshRoles re-reads every live node's role and fencing state from
// its replication stats. The gateway's elector promotes and fences nodes
// over the wire, behind the script's back — scripted views of who leads
// must always refresh first.
func (c *Cluster) refreshRoles() {
	for _, n := range c.Nodes() {
		if !n.Alive {
			continue
		}
		n.IsLeader = n.rnode.Role() == repl.RoleLeader
		n.Fenced = n.rnode.Fenced()
	}
}

// PartitionLeader returns the live unfenced leader of a ring partition —
// the max-epoch one should a duel be mid-resolution — or nil.
func (c *Cluster) PartitionLeader(partition string) *Node {
	c.refreshRoles()
	var best *Node
	for _, n := range c.Nodes() {
		if !n.Alive || !n.IsLeader || n.Fenced || n.Partition != partition {
			continue
		}
		if best == nil || best.rnode.EpochToken().Less(n.rnode.EpochToken()) {
			best = n
		}
	}
	return best
}

// AwaitLeader advances simulated time until partition has a live
// unfenced leader — how a script waits out the gateway's elector.
func (c *Cluster) AwaitLeader(partition string, budget time.Duration) error {
	return c.Await(budget, "await leader of "+partition, func() bool {
		return c.PartitionLeader(partition) != nil
	})
}

// PromoteBest is the operator failover: promote the partition's
// most-caught-up live follower (ties to the smallest name, matching the
// elector), minting the next epoch.
func (c *Cluster) PromoteBest(partition string) error {
	c.refreshRoles()
	var best *Node
	var bestApplied uint64
	for _, n := range c.Nodes() {
		if !n.Alive || n.IsLeader || n.Partition != partition {
			continue
		}
		f := n.Follower()
		if f == nil {
			continue
		}
		if a := f.AppliedSeq(); best == nil || a > bestApplied {
			best, bestApplied = n, a
		}
	}
	if best == nil {
		return fmt.Errorf("sim: partition %s has no follower to promote", partition)
	}
	if err := best.rnode.Promote(); err != nil {
		return fmt.Errorf("sim: promote %s: %w", best.Name, err)
	}
	best.IsLeader = true
	return nil
}

// RejoinDead brings every dead node of a partition back as a follower of
// its current leader — the operator re-provisioning crashed or deposed
// machines after a failover. An ex-leader's old store is abandoned; it
// returns as a fresh replica of the new timeline.
func (c *Cluster) RejoinDead(partition string) error {
	lead := c.PartitionLeader(partition)
	if lead == nil {
		return fmt.Errorf("sim: partition %s has no live leader to rejoin", partition)
	}
	for _, n := range c.Nodes() {
		if n.Alive || n.Partition != partition || n.Name == lead.Name {
			continue
		}
		if err := c.startFollowerOf(n.Name, partition, lead.Name); err != nil {
			return err
		}
	}
	return nil
}

// ArmDiskFault schedules an injected disk fault on a node's next segment
// write. A dead or unknown node is a no-op: chaos scripts may race the
// fault against kills.
func (c *Cluster) ArmDiskFault(name, fault string) {
	n := c.Node(name)
	if n == nil || !n.Alive || n.fs == nil {
		return
	}
	n.fs.Arm(fault)
}

// Kill stops a node: its listener goes away, its open connections are
// severed, and (for a leader) its journal and store are closed so the
// on-disk state is exactly the committed history — the process-stop a
// restart recovers from. Followers keep no durable state; killing one
// discards its replica.
func (c *Cluster) Kill(name string) error {
	c.mu.Lock()
	node := c.nodes[name]
	c.mu.Unlock()
	if node == nil {
		return fmt.Errorf("sim: no node %q", name)
	}
	if !node.Alive {
		return nil
	}
	c.Net.Unlisten(name)
	node.hs.Close()
	node.rnode.Close()
	if node.j != nil {
		node.j.Close()
		node.j = nil
	}
	if node.cp != nil {
		node.cp.Close()
		node.cp = nil
	}
	if node.db != nil {
		node.db.Close()
		node.db = nil
	}
	node.Alive = false
	return nil
}

// Restart brings a killed node back: a leader reopens its store and
// replays its journal; a follower re-bootstraps from its partition's
// current leader (snapshot + tail, like any rejoin).
func (c *Cluster) Restart(name string) error {
	c.mu.Lock()
	node := c.nodes[name]
	c.mu.Unlock()
	if node == nil {
		return fmt.Errorf("sim: no node %q", name)
	}
	if node.Alive {
		return nil
	}
	if node.IsLeader && node.dir != "" {
		return c.startLeader(name)
	}
	lead := c.PartitionLeader(node.Partition)
	if lead == nil {
		return fmt.Errorf("sim: partition %s has no live leader to rejoin", node.Partition)
	}
	return c.startFollowerOf(name, node.Partition, lead.Name)
}

// startFollowerOf bootstraps a replica of leaderName serving partition
// (after a failover the partition's leader is not the partition's name).
// Each start gets a fresh promotion directory — promotion refuses a dirty
// store, and a restarted follower must not inherit a dead generation's.
func (c *Cluster) startFollowerOf(name, partition, leaderName string) error {
	c.mu.Lock()
	c.gen++
	promoDir := filepath.Join(c.cfg.Dir, fmt.Sprintf("%s-promo-%d", name, c.gen))
	c.mu.Unlock()
	ffs := storage.NewFaultFS(nil)
	rnode, err := repl.NewFollowerNode(repl.FollowerOptions{
		LeaderURL: "http://" + leaderName,
		Clock:     c.Clock,
		LoopClock: c.Clock,
		Rand:      c.Rand,
		HTTP:      c.Net.HTTPClient(name),
		PollWait:  c.cfg.PollWait,
		LeaseTTL:  c.cfg.LeaseTTL,
		OwnsID:    c.owns(partition),
		DataDir:   promoDir,
		Storage:   storage.Options{Sync: c.cfg.syncPolicy(), FS: ffs},
		Checkpoint: platform.CheckpointOptions{
			EveryEvents:     c.cfg.CheckpointEvery,
			CompactMinBytes: 32 << 10,
		},
	})
	if err != nil {
		return fmt.Errorf("sim: follower %s: %w", name, err)
	}
	rnode.SetIdentity(name, partition)
	srv := platform.NewServer(rnode.Engine())
	srv.Handle("/api/repl/", rnode.Handler())
	node := &Node{
		Name: name, Partition: partition, Alive: true, leader: leaderName,
		engine: rnode.Engine(), rnode: rnode, fs: ffs,
	}
	if err := c.serve(node, srv); err != nil {
		rnode.Close()
		return err
	}
	c.mu.Lock()
	c.nodes[name] = node
	c.mu.Unlock()
	return nil
}

// Promote turns a follower into its partition's leader (the operator
// failover action). The caller usually kills the old leader first.
func (c *Cluster) Promote(name string) error {
	c.mu.Lock()
	node := c.nodes[name]
	c.mu.Unlock()
	if node == nil || !node.Alive {
		return fmt.Errorf("sim: no live node %q", name)
	}
	if err := node.rnode.Promote(); err != nil {
		return err
	}
	node.IsLeader = true
	return nil
}

// Await advances simulated time in 10ms steps until cond holds, giving
// the runtime scheduler room between steps, up to budget of virtual
// time. A wall-time guard catches a simulation that has genuinely hung
// (deadlock, lost wakeup) rather than merely not reached cond yet.
func (c *Cluster) Await(budget time.Duration, what string, cond func() bool) error {
	const step = 10 * time.Millisecond
	wallDeadline := time.Now().Add(60 * time.Second)
	for virt := time.Duration(0); ; virt += step {
		for i := 0; i < 3; i++ {
			if cond() {
				return nil
			}
			runtime.Gosched()
		}
		// A real (if tiny) sleep, not just Gosched: background goroutines
		// such as an HTTP pump between requests need the OS scheduler to
		// actually run them, same as vclock.Sim's settle.
		time.Sleep(50 * time.Microsecond)
		if cond() {
			return nil
		}
		if virt >= budget {
			return fmt.Errorf("sim: %s: not reached within %v of simulated time", what, budget)
		}
		if time.Now().After(wallDeadline) {
			return fmt.Errorf("sim: %s: wall-clock guard tripped (simulation hung)", what)
		}
		c.Clock.Advance(step)
	}
}

// Quiesce drives the cluster to a stable point: every leader's journal
// frontier has stopped moving and every live follower has applied
// exactly up to its partition leader's frontier. Invariant checks are
// only meaningful at quiesce.
func (c *Cluster) Quiesce(budget time.Duration) error {
	prev := make(map[string]uint64)
	return c.Await(budget, "quiesce", func() bool {
		c.refreshRoles()
		stable := true
		for _, n := range c.Nodes() {
			// Fenced ex-leaders are outside the quiesce frontier: they serve
			// nothing and their followers have moved to the successor.
			if !n.Alive || !n.IsLeader || n.Fenced {
				continue
			}
			// Fence the committer first: fast-acked appends run ahead of
			// the journal's length, and quiesce is defined over everything
			// acknowledged.
			if j := n.rnode.Journal(); j != nil {
				j.Flush()
			}
			frontier := n.frontier()
			if prev[n.Name] != frontier {
				prev[n.Name] = frontier
				stable = false
				continue
			}
			for _, f := range c.Nodes() {
				if !f.Alive || f.IsLeader || f.Partition != n.Partition {
					continue
				}
				fol := f.Follower()
				if fol == nil || fol.AppliedSeq() != frontier {
					stable = false
				}
			}
		}
		return stable
	})
}

// CheckReplicasIdentical asserts the quiesce invariant: every live
// follower's exported engine state is byte-identical to its partition
// leader's at the leader's frontier.
func (c *Cluster) CheckReplicasIdentical() error {
	c.refreshRoles()
	for _, lead := range c.Nodes() {
		if !lead.Alive || !lead.IsLeader || lead.Fenced {
			continue
		}
		frontier := lead.frontier()
		want, err := lead.engine.ExportState(frontier)
		if err != nil {
			return fmt.Errorf("sim: export %s@%d: %w", lead.Name, frontier, err)
		}
		for _, f := range c.Nodes() {
			if !f.Alive || f.IsLeader || f.Partition != lead.Partition {
				continue
			}
			got, err := f.engine.ExportState(frontier)
			if err != nil {
				return fmt.Errorf("sim: export %s@%d: %w", f.Name, frontier, err)
			}
			if !bytes.Equal(want, got) {
				return fmt.Errorf("sim: replica %s diverged from %s at seq %d (%d vs %d bytes)",
					f.Name, lead.Name, frontier, len(got), len(want))
			}
		}
	}
	return nil
}

// CheckSingleLeader asserts that each ring partition has exactly one
// live unfenced leader — fenced ex-leaders may linger (they accept
// nothing), but two writable leaders in one partition is split brain.
func (c *Cluster) CheckSingleLeader() error {
	c.refreshRoles()
	count := make(map[string]int)
	epochs := make(map[string][]string)
	for _, n := range c.Nodes() {
		if n.Alive && n.IsLeader && !n.Fenced {
			count[n.Partition]++
			epochs[n.Partition] = append(epochs[n.Partition], n.rnode.EpochToken().String())
		}
	}
	for i := 1; i <= c.cfg.Leaders; i++ {
		p := fmt.Sprintf("l%d", i)
		if count[p] != 1 {
			return fmt.Errorf("sim: partition %s has %d live unfenced leaders (epochs %v), want 1", p, count[p], epochs[p])
		}
	}
	return nil
}

// StateHash digests every partition leader's frontier and exported state
// into one value — two runs of the same seeded scenario must produce the
// same hash (the byte-identical-replay acceptance check).
func (c *Cluster) StateHash() (uint64, error) {
	c.refreshRoles()
	h := fnv.New64a()
	for _, n := range c.Nodes() {
		if !n.Alive || !n.IsLeader || n.Fenced {
			continue
		}
		frontier := n.frontier()
		data, err := n.engine.ExportState(frontier)
		if err != nil {
			return 0, fmt.Errorf("sim: export %s@%d: %w", n.Name, frontier, err)
		}
		fmt.Fprintf(h, "%s@%d:", n.Name, frontier)
		h.Write(data)
	}
	return h.Sum64(), nil
}

// Close tears the whole cluster down.
func (c *Cluster) Close() {
	c.mu.Lock()
	gw, gwHS := c.gw, c.gwHS
	c.gw, c.gwHS = nil, nil
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	c.mu.Unlock()
	if gwHS != nil {
		gwHS.Close()
	}
	if gw != nil {
		gw.Close()
	}
	sort.Strings(names)
	for _, name := range names {
		c.Kill(name)
	}
}
