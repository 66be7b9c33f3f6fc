package sim

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/storage"
)

// stampedWrite PUTs a project create straight at a node (bypassing the
// gateway), stamped with an epoch token, and returns the HTTP status and
// platform error code — how a router with a stale view would hit a
// deposed leader.
func stampedWrite(t *testing.T, c *Cluster, node, name string, tok platform.EpochToken) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, "http://"+node+"/api/projects",
		strings.NewReader(`{"name":"`+name+`","redundancy":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if !tok.IsZero() {
		req.Header.Set(platform.HeaderEpoch, tok.String())
	}
	resp, err := c.Net.HTTPClient("tester").Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, ""
	}
	var e struct {
		Code string `json:"code"`
	}
	json.Unmarshal(body, &e)
	return resp.StatusCode, e.Code
}

// TestSimAutoFailover is the tentpole end to end in virtual time: the
// partition leader dies, the gateway's elector notices via its prober,
// promotes the caught-up follower with a fresh fencing token, writes keep
// flowing through the gateway — and when the deposed leader comes back,
// an epoch-stamped write bounces 409 stale_epoch, self-fencing it so it
// never accepts a single write on the old timeline.
func TestSimAutoFailover(t *testing.T) {
	c, err := New(77, Config{
		Dir: t.TempDir(), Leaders: 1, FollowersPerLeader: 1,
		Gateway: true, AutoFailover: true, CheckpointEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := c.GatewayClient()

	p, err := client.EnsureProject(platform.ProjectSpec{Name: "alpha", Redundancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	pre := make([]platform.TaskSpec, 60)
	for i := range pre {
		pre[i] = platform.TaskSpec{ExternalID: "pre-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i/26))}
	}
	if _, err := client.AddTasks(p.ID, pre); err != nil {
		t.Fatal(err)
	}
	mustQuiesce(t, c)

	// The leader dies. Nothing else is scripted: the elector must detect
	// it, pick the caught-up follower, and promote with a minted epoch.
	if err := c.Kill("l1"); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitLeader("l1", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	lead := c.PartitionLeader("l1")
	if lead == nil || lead.Name != "f1" {
		t.Fatalf("elector promoted %+v, want f1", lead)
	}
	tok := lead.rnode.EpochToken()
	if tok.Epoch == 0 || tok.Holder != "f1" {
		t.Fatalf("promoted without a minted token: %s", tok)
	}
	// The counter moves only once the promote RPC's reply has crossed the
	// simulated network, which takes virtual time the promotion itself
	// (what AwaitLeader saw) did not need.
	if err := c.Await(2*time.Minute, "gateway elections counter to move", func() bool {
		return c.Gateway().Snapshot().Stats.Elections > 0
	}); err != nil {
		t.Fatal(err)
	}

	// Acked writes keep flowing through the same front door.
	post := []platform.TaskSpec{{ExternalID: "post-1"}, {ExternalID: "post-2"}}
	if _, err := client.AddTasks(p.ID, post); err != nil {
		t.Fatalf("write after failover: %v", err)
	}

	// The deposed leader restarts. Its journal holds no newer token, so it
	// comes up believing it still leads — the fencing stamp is what stops
	// it: a write carrying the current epoch is proof of its deposition.
	if err := c.Restart("l1"); err != nil {
		t.Fatal(err)
	}
	if status, code := stampedWrite(t, c, "l1", "fork-attempt", tok); status != http.StatusConflict || code != "stale_epoch" {
		t.Fatalf("stamped write at deposed leader: HTTP %d code %q, want 409 stale_epoch", status, code)
	}
	// Self-fenced by that one stamp: now not even unstamped writes land.
	if status, code := stampedWrite(t, c, "l1", "fork-attempt-2", platform.EpochToken{}); status != http.StatusServiceUnavailable || code != "fenced" {
		t.Fatalf("unstamped write at fenced leader: HTTP %d code %q, want 503 fenced", status, code)
	}
	if n := c.Node("l1"); !n.rnode.Fenced() {
		t.Fatal("deposed leader not fenced after stamped contact")
	}

	// The fenced node rejoins the new timeline as a follower and
	// converges byte-identically.
	if err := c.Kill("l1"); err != nil {
		t.Fatal(err)
	}
	if err := c.RejoinDead("l1"); err != nil {
		t.Fatal(err)
	}
	mustQuiesce(t, c)
	checkInvariants(t, c)
	stats, err := client.Stats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tasks != 62 {
		t.Fatalf("tasks after failover round trip: got %d, want 62", stats.Tasks)
	}
}

// TestSimDuelingPromotions races two operator promotions ahead of the
// elector: both followers mint the same epoch number with different
// holders. The gateway's fence pass must depose exactly one — the token
// order's loser — and the survivor keeps taking writes.
func TestSimDuelingPromotions(t *testing.T) {
	c, err := New(78, Config{
		Dir: t.TempDir(), Leaders: 1, FollowersPerLeader: 2,
		Gateway: true, AutoFailover: true, CheckpointEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := c.GatewayClient()

	p, err := client.EnsureProject(platform.ProjectSpec{Name: "duel", Redundancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.AddTasks(p.ID, []platform.TaskSpec{{ExternalID: "pre"}}); err != nil {
		t.Fatal(err)
	}
	mustQuiesce(t, c)

	if err := c.Kill("l1"); err != nil {
		t.Fatal(err)
	}
	// Two operators race promotions before the elector's grace elapses.
	if err := c.Promote("f1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Promote("f2"); err != nil {
		t.Fatal(err)
	}
	t1, t2 := c.Node("f1").rnode.EpochToken(), c.Node("f2").rnode.EpochToken()
	if t1.Epoch != t2.Epoch {
		t.Fatalf("duel epochs diverged: %s vs %s", t1, t2)
	}

	// The prober sees both; the fence pass deposes the token-order loser.
	err = c.Await(time.Minute, "duel resolved", func() bool {
		c.refreshRoles()
		unfenced := 0
		for _, n := range c.Nodes() {
			if n.Alive && n.IsLeader && !n.Fenced {
				unfenced++
			}
		}
		return unfenced == 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckSingleLeader(); err != nil {
		t.Fatal(err)
	}
	winner := c.PartitionLeader("l1")
	if winner == nil || winner.Name != "f2" {
		t.Fatalf("duel winner %+v, want f2 (total token order breaks the tie)", winner)
	}
	if c.Gateway().Snapshot().Stats.Fences == 0 {
		t.Fatal("gateway fences counter did not move")
	}
	if _, err := client.AddTasks(p.ID, []platform.TaskSpec{{ExternalID: "post"}}); err != nil {
		t.Fatalf("write after duel: %v", err)
	}

	// The fenced loser rejoins as a follower of the winner.
	if err := c.Kill("f1"); err != nil {
		t.Fatal(err)
	}
	if err := c.RejoinDead("l1"); err != nil {
		t.Fatal(err)
	}
	mustQuiesce(t, c)
	checkInvariants(t, c)
}

// TestSimDiskFaultRecovery injects a torn segment write into a leader's
// store mid-traffic: the write errors (never acked), the store
// fail-stops, and a crash-restart recovers exactly the acknowledged
// prefix — SyncWrites guarantees every ack was durable before the fault.
func TestSimDiskFaultRecovery(t *testing.T) {
	c, err := New(79, Config{
		Dir: t.TempDir(), Leaders: 1, FollowersPerLeader: 1,
		SyncWrites: true, CheckpointEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e := c.Node("l1").Engine()
	p := seedTasks(t, e, "alpha", "pre", 50)
	mustQuiesce(t, c)

	c.ArmDiskFault("l1", storage.FaultTorn)
	// The next durable append hits the fault: the write must error, not
	// ack-and-lose.
	if _, err := e.AddTasks(p, []platform.TaskSpec{{ExternalID: "torn"}}); err == nil {
		t.Fatal("write through an armed torn fault was acknowledged")
	}
	if got := c.Node("l1").FaultFS().Injected(); got != 1 {
		t.Fatalf("injected faults = %d, want 1", got)
	}
	// Fail-stopped: the node behaves like a crashed one until restarted.
	if _, err := e.AddTasks(p, []platform.TaskSpec{{ExternalID: "after"}}); err == nil {
		t.Fatal("write accepted by a fail-stopped store")
	}

	if err := c.Kill("l1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("l1"); err != nil {
		t.Fatalf("recovery over the torn tail: %v", err)
	}
	e2 := c.Node("l1").Engine()
	proj, ok, err := e2.FindProject("alpha")
	if err != nil || !ok {
		t.Fatalf("project lost in recovery (ok=%v err=%v)", ok, err)
	}
	tasks, err := e2.Tasks(proj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 50 {
		t.Fatalf("recovered %d tasks, want the 50 acknowledged ones", len(tasks))
	}
	for _, task := range tasks {
		if task.ExternalID == "torn" || task.ExternalID == "after" {
			t.Fatalf("unacknowledged task %q survived recovery", task.ExternalID)
		}
	}
	// The cluster converges again: follower re-syncs, invariants hold.
	if _, err := e2.AddTasks(proj.ID, []platform.TaskSpec{{ExternalID: "resumed"}}); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	mustQuiesce(t, c)
	checkInvariants(t, c)
}

// TestShrinkScript: the delta-debugging reducer must cut a failing
// script to its minimal core — here, a kill of a node that does not
// exist, buried between healthy bursts.
func TestShrinkScript(t *testing.T) {
	script := Script{
		Config: Config{Leaders: 1, FollowersPerLeader: 1},
		Ops: []Op{
			{Kind: OpBurst, Project: "alpha", N: 5},
			{Kind: OpAdvance, D: 100 * time.Millisecond},
			{Kind: OpKill, Node: "zz"},
			{Kind: OpBurst, Project: "beta", N: 3},
		},
	}
	shrunk := ShrinkScript(t.TempDir(), 5, script, 24)
	if len(shrunk.Ops) != 1 || shrunk.Ops[0].Kind != OpKill || shrunk.Ops[0].Node != "zz" {
		t.Fatalf("shrunk to %s, want [kill{zz}]", FormatOps(shrunk.Ops))
	}
	if got := FormatOps(shrunk.Ops); got != "[kill{zz}]" {
		t.Fatalf("FormatOps = %q", got)
	}
	// A passing script must come back untouched, not "minimized".
	healthy := Script{Config: script.Config, Ops: []Op{{Kind: OpBurst, Project: "alpha", N: 2}}}
	same := ShrinkScript(t.TempDir(), 5, healthy, 8)
	if len(same.Ops) != len(healthy.Ops) {
		t.Fatalf("shrinker reduced a passing script to %s", FormatOps(same.Ops))
	}
}
