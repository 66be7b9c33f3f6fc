package repl

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// FollowerOptions configure StartFollower. Only LeaderURL is required.
type FollowerOptions struct {
	// LeaderURL is the leader's base URL (e.g. "http://leader:7070").
	LeaderURL string
	// Clock supplies the replica engine's clock; nil defaults to the
	// engine's own default (a deterministic virtual clock). Replicated
	// events carry their own timestamps, so this clock only matters
	// after a promotion.
	Clock vclock.Clock
	// LoopClock paces the stream pump itself: reconnect backoff, lag
	// tracking, and WaitFor's polling. Nil defaults to wall time. It is
	// deliberately distinct from Clock — an engine may run on a Virtual
	// clock (auto-advancing timestamps) while the pump waits in real
	// time; a simulated cluster injects its vclock.Sim as both.
	LoopClock vclock.Clock
	// Rand jitters each reconnect backoff by ±25% so followers of a
	// bounced leader do not reconnect in lockstep. Nil disables jitter;
	// inject a vclock.SeededRand for a reconnect schedule reproducible
	// from a seed.
	Rand vclock.Rand
	// LeaseTTL / Shards configure the replica engine's scheduler,
	// exactly as EngineOptions would.
	LeaseTTL time.Duration
	Shards   int
	// HTTP is the client used against the leader; nil builds one. Its
	// Timeout is ignored for the stream (which long-polls); per-request
	// deadlines are derived from PollWait instead.
	HTTP *http.Client
	// PollWait is the long-poll window asked of the leader (default 10s,
	// capped by the leader at 30s).
	PollWait time.Duration
	// MaxBatch caps events per poll response (default 4096).
	MaxBatch int
	// ReconnectBackoff is the delay after a failed poll, doubling up to
	// 5s (default 100ms). The follower retries forever — a leader
	// restart is routine, not fatal.
	ReconnectBackoff time.Duration
	// DataDir, when set, is where Promote materializes the follower's
	// state and opens its own journal. Empty means an ephemeral
	// promotion: writable, but unjournaled until restarted with -data.
	DataDir string
	// Storage / Journal configure the promotion store and journal.
	Storage storage.Options
	Journal platform.JournalOptions
	// Checkpoint configures the snapshot checkpointer a durable
	// promotion attaches (the promoted leader must keep folding its
	// journal, or post-failover history grows unbounded and gen-2
	// followers lose their bounded catch-up). Both triggers zero skips
	// the checkpointer, exactly like the server's -snapshot-every 0
	// -snapshot-bytes 0.
	Checkpoint platform.CheckpointOptions
	// OwnsID, when non-nil, is the replica engine's id-allocation filter
	// (see platform.EngineOptions.OwnsID). Inert while following —
	// replicated events keep their recorded ids — it takes effect after a
	// promotion, keeping the promoted leader's new ids inside the ring
	// partition it owns.
	OwnsID func(id int64) bool
	// Metrics, when non-nil, registers the follower's families (lag in
	// events and seconds, bootstrap durations, rebootstrap counter) and
	// flows into the replica engine and any promotion store/journal. Nil
	// disables instrumentation.
	Metrics *obs.Registry
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.PollWait <= 0 {
		o.PollWait = 10 * time.Second
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = defaultStreamMax
	}
	if o.ReconnectBackoff <= 0 {
		o.ReconnectBackoff = 100 * time.Millisecond
	}
	if o.LoopClock == nil {
		o.LoopClock = vclock.NewWall()
	}
	return o
}

// maxReconnectBackoff caps the follower's retry delay.
const maxReconnectBackoff = 5 * time.Second

// Follower is a read replica: an engine bootstrapped from the leader's
// snapshot + journal tail, kept current by applying the live stream
// through the replay path, and read-only toward external callers (the
// HTTP layer redirects writes to the leader). A follower that dies is
// simply restarted — bootstrap is bounded by the leader's checkpoint
// interval, so rejoin is cheap by construction.
type Follower struct {
	opts   FollowerOptions
	engine *platform.Engine
	hc     *http.Client
	base   string
	clock  vclock.Clock // opts.LoopClock: pump pacing, never timestamps

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// traceID tags every stream/snapshot request this follower sends, so
	// the leader's access log attributes the replication tail to one
	// session — the last hop of a request's cross-node path.
	traceID string

	mu           sync.Mutex
	appliedSeq   uint64    // next sequence to apply
	leaderSeq    uint64    // leader frontier as of the last successful poll
	snapshotSeq  uint64    // bootstrap snapshot's cut point
	rebootstraps uint64    // state resets forced by leader-side truncation
	target       uint64    // frontier at first contact; ready once applied past it
	lagSince     time.Time // when the replica last fell behind the frontier (zero = caught up)
	epoch        platform.EpochToken
	connected    bool
	ready        bool
	fatal        bool
	lastErr      string
	stopped      bool

	mBootstrap *obs.Histogram // bootstrap/rebootstrap wall time (nil = off)
}

// StartFollower bootstraps a replica from the leader (snapshot + tail,
// the same bounded recovery path a restart uses) and starts the stream
// loop. The returned follower's Engine serves the read API; writes
// against it return platform.ErrReadOnly carrying the leader's URL.
func StartFollower(opts FollowerOptions) (*Follower, error) {
	opts = opts.withDefaults()
	if opts.LeaderURL == "" {
		return nil, fmt.Errorf("repl: follower requires a leader URL")
	}
	// The registry flows into everything the follower builds: the replica
	// engine now, the promotion store/journal later.
	opts.Storage.Metrics = opts.Metrics
	opts.Journal.Metrics = opts.Metrics
	engine, err := platform.NewEngineOpts(platform.EngineOptions{
		Clock:    opts.Clock,
		LeaseTTL: opts.LeaseTTL,
		Shards:   opts.Shards,
		OwnsID:   opts.OwnsID,
		Metrics:  opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	hc := opts.HTTP
	if hc == nil {
		hc = &http.Client{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		opts:    opts,
		engine:  engine,
		hc:      hc,
		clock:   opts.LoopClock,
		base:    strings.TrimRight(opts.LeaderURL, "/"),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		traceID: obs.NewTraceID(),
	}
	f.initMetrics(opts.Metrics)
	if err := f.bootstrap(); err != nil {
		cancel()
		return nil, err
	}
	engine.SetReadOnly(opts.LeaderURL)
	// Direct StartFollower embedders get follower stats on the engine's
	// stats/healthz; a wrapping Node re-registers its own role-aware
	// provider (which tracks the follower→leader transition) on top.
	engine.SetReplStatsFunc(f.stats)
	go f.loop()
	return f, nil
}

// Engine exposes the replica's engine (for serving the read API).
func (f *Follower) Engine() *platform.Engine { return f.engine }

// initMetrics registers the follower's families (nil registry = off). Lag
// is exported both ways the ISSUE's ROADMAP consumers need it: events
// (how much) and seconds (how stale), the latter measured as time since
// the replica last matched the leader's frontier.
func (f *Follower) initMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	f.mBootstrap = reg.Histogram("reprowd_repl_bootstrap_seconds",
		"Wall time of one bootstrap or rebootstrap (snapshot fetch + restore).", nil)
	reg.CounterFunc("reprowd_repl_rebootstraps_total",
		"State resets forced by leader-side journal truncation.", func() uint64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return f.rebootstraps
		})
	reg.GaugeFunc("reprowd_repl_lag_events",
		"Committed leader events not yet applied on this replica.", func() float64 {
			return float64(f.stats().Lag)
		})
	reg.GaugeFunc("reprowd_repl_lag_seconds",
		"How long this replica has been behind the leader frontier (0 = caught up).", func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			if f.lagSince.IsZero() {
				return 0
			}
			return f.clock.Now().Sub(f.lagSince).Seconds()
		})
	reg.GaugeFunc("reprowd_repl_applied_seq",
		"Next journal sequence this replica will apply.", func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(f.appliedSeq)
		})
	reg.GaugeFunc("reprowd_repl_leader_seq",
		"Leader frontier as of the last successful poll.", func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(f.leaderSeq)
		})
}

// epochSeen returns the newest fencing token this follower has observed
// on the replication wire — the floor any promotion of it must exceed.
func (f *Follower) epochSeen() platform.EpochToken {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// observeEpoch lifts the follower's epoch floor (elector fence calls and
// response stamps both land here). Tokens at or below the current floor
// are no-ops.
func (f *Follower) observeEpoch(tok platform.EpochToken) {
	f.mu.Lock()
	if f.epoch.Less(tok) {
		f.epoch = tok
	}
	f.mu.Unlock()
}

// checkWireEpoch validates a stream/snapshot response's epoch stamp
// against the floor: an older token means the response came from a
// deposed leader whose history may have forked — refuse it. Newer or
// equal stamps lift/keep the floor.
func (f *Follower) checkWireEpoch(hdr string) error {
	tok, err := platform.ParseEpochToken(hdr)
	if err != nil {
		return err
	}
	if tok.IsZero() {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if tok.Less(f.epoch) {
		return fmt.Errorf("repl: stream epoch %s older than observed %s: %w", tok, f.epoch, platform.ErrStaleEpoch)
	}
	if f.epoch.Less(tok) {
		f.epoch = tok
	}
	return nil
}

// updateLagLocked maintains the lag clock: stamp the moment the replica
// falls behind the frontier, clear it when caught up. Callers hold f.mu.
func (f *Follower) updateLagLocked() {
	if f.leaderSeq > f.appliedSeq {
		if f.lagSince.IsZero() {
			f.lagSince = f.clock.Now()
		}
	} else {
		f.lagSince = time.Time{}
	}
}

// fetchSnapshot reads the leader's latest snapshot record. ok is false
// when the leader has never checkpointed (bootstrap then streams from
// sequence zero).
func (f *Follower) fetchSnapshot() (data []byte, seq uint64, ok bool, err error) {
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, f.base+"/api/repl/snapshot", nil)
	if err != nil {
		return nil, 0, false, err
	}
	req.Header.Set(obs.HeaderTrace, f.traceID)
	resp, err := f.hc.Do(req)
	if err != nil {
		return nil, 0, false, fmt.Errorf("repl: fetch snapshot: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, 0, false, nil
	case http.StatusOK:
	default:
		return nil, 0, false, fmt.Errorf("repl: fetch snapshot: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != platform.FrameContentType {
		return nil, 0, false, fmt.Errorf("repl: fetch snapshot: Content-Type %q is not the frame wire", ct)
	}
	if err := f.checkWireEpoch(resp.Header.Get(HeaderReplEpoch)); err != nil {
		return nil, 0, false, err
	}
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, false, fmt.Errorf("repl: read snapshot: %w", err)
	}
	// The snapshot arrives CRC-framed, so a torn or corrupted transfer
	// fails here instead of producing a replica restored from garbage.
	data, err = platform.DecodeSnapshotFrame(data)
	if err != nil {
		return nil, 0, false, fmt.Errorf("repl: snapshot frame: %w", err)
	}
	if hdr := resp.Header.Get(HeaderSnapshotSeq); hdr != "" {
		seq, _ = strconv.ParseUint(hdr, 10, 64)
	}
	return data, seq, true, nil
}

// bootstrap fetches the leader's latest snapshot (if any) and loads it
// into the fresh engine. The journal tail between the snapshot's cut and
// the leader's frontier arrives through the ordinary stream path — the
// first polls of the loop — which is what makes a bootstrap racing a
// leader-side checkpoint safe: whatever cut the snapshot read captured,
// the stream resumes exactly at its sequence (and if a cut outruns the
// stream, rebootstrap below recovers).
func (f *Follower) bootstrap() error {
	t := f.mBootstrap.Start()
	defer f.mBootstrap.Stop(t)
	data, hseq, ok, err := f.fetchSnapshot()
	if err != nil {
		return err
	}
	if !ok {
		return nil // leader has never checkpointed; stream from zero
	}
	seq, err := f.engine.RestoreState(data)
	if err != nil {
		return err
	}
	if hseq != 0 && hseq != seq {
		return fmt.Errorf("repl: snapshot cut mismatch: header %d, state %d", hseq, seq)
	}
	f.mu.Lock()
	f.appliedSeq = seq
	f.snapshotSeq = seq
	f.mu.Unlock()
	return nil
}

// rebootstrap discards the replica's state and reloads the leader's
// newest snapshot — the recovery from snapshot_required, where a
// leader-side checkpoint truncated journal events this replica had not
// yet streamed. The missing events live on inside that newer snapshot,
// so reloading it (and resuming the stream at its cut) converges on
// exactly the state contiguous streaming would have produced.
func (f *Follower) rebootstrap() error {
	t := f.mBootstrap.Start()
	defer f.mBootstrap.Stop(t)
	data, _, ok, err := f.fetchSnapshot()
	if err != nil {
		return err
	}
	if !ok {
		// The stream said "truncated" but no snapshot exists: the journal
		// invariant (truncation only ever follows a durable snapshot)
		// says this cannot happen — treat it as a transient read race.
		return fmt.Errorf("repl: leader truncated the journal but serves no snapshot")
	}
	seq, err := f.engine.ResetReplicaState(data)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.appliedSeq = seq
	f.snapshotSeq = seq
	f.rebootstraps++
	f.mu.Unlock()
	return nil
}

// loop is the stream pump: poll, apply, repeat; back off on failure and
// reconnect — a leader restart costs a few retries, nothing else.
func (f *Follower) loop() {
	defer close(f.done)
	backoff := f.opts.ReconnectBackoff
	for {
		select {
		case <-f.ctx.Done():
			return
		default:
		}
		n, err := f.poll()
		if err != nil {
			if f.ctx.Err() != nil {
				return
			}
			if err == ErrSnapshotRequired {
				// The gap we need was truncated into a newer snapshot;
				// reload it in place and resume the stream at its cut.
				err = f.rebootstrap()
				if err == nil {
					backoff = f.opts.ReconnectBackoff
					continue
				}
			}
			f.setDisconnected(err)
			select {
			case <-f.ctx.Done():
				return
			case <-f.clock.After(vclock.Jitter(f.opts.Rand, backoff, 0.25)):
			}
			backoff = min(backoff*2, maxReconnectBackoff)
			continue
		}
		backoff = f.opts.ReconnectBackoff
		_ = n
	}
}

// poll performs one long-poll round: request events at the applied
// sequence, apply each in order, record the leader's frontier. Events are
// applied as they decode, so a connection dropped mid-body just resumes
// at the next unapplied sequence.
func (f *Follower) poll() (int, error) {
	f.mu.Lock()
	from := f.appliedSeq
	f.mu.Unlock()
	u := fmt.Sprintf("%s/api/repl/stream?from=%d&wait=%s&max=%d",
		f.base, from, url.QueryEscape(f.opts.PollWait.String()), f.opts.MaxBatch)
	ctx, cancel := context.WithTimeout(f.ctx, f.opts.PollWait+15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set(obs.HeaderTrace, f.traceID)
	resp, err := f.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, resp.Body)
		return 0, ErrSnapshotRequired
	default:
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("repl: stream: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != platform.FrameContentType {
		// Not a leader speaking the frame wire: a failed poll, retried
		// with backoff — never a guess at some other body format.
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("repl: stream: Content-Type %q is not the frame wire", ct)
	}
	if err := f.checkWireEpoch(resp.Header.Get(HeaderReplEpoch)); err != nil {
		io.Copy(io.Discard, resp.Body)
		return 0, err
	}
	var frontier uint64
	if hdr := resp.Header.Get(HeaderFrontier); hdr != "" {
		frontier, _ = strconv.ParseUint(hdr, 10, 64)
	}
	// Mark the reconnect as soon as the leader answers — the body may be
	// a long poll that stays open for the whole wait window, and healthz
	// should not report a healthy stream as down that long.
	f.recordProgress(frontier, 0)
	applied := 0
	// applyOne is the per-event step: enforce contiguity, apply through
	// the replay path, advance the cursor.
	applyOne := func(seq uint64, ev platform.Event) error {
		f.mu.Lock()
		want := f.appliedSeq
		f.mu.Unlock()
		if seq != want {
			f.recordProgress(frontier, applied)
			return fmt.Errorf("repl: stream gap: got seq %d, want %d", seq, want)
		}
		if err := f.engine.ApplyReplicated(ev); err != nil {
			// An apply failure means replica state has diverged from the
			// leader's history — nothing a retry can fix.
			f.fail(fmt.Errorf("repl: apply seq %d: %w", seq, err))
			return err
		}
		f.mu.Lock()
		f.appliedSeq = seq + 1
		if !f.ready && f.appliedSeq >= f.target {
			// Readiness flips as soon as the first-contact frontier is
			// covered — mid-body, not at the end of the long poll.
			f.ready = true
		}
		f.updateLagLocked()
		f.mu.Unlock()
		applied++
		return nil
	}
	// CRC-framed events, decoded into one scratch buffer reused across
	// the whole body.
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var scratch []byte
	for {
		seq, ev, err := platform.ReadStreamFrame(br, &scratch)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn response: what applied, applied; resume from there.
			f.recordProgress(frontier, applied)
			return applied, fmt.Errorf("repl: stream decode: %w", err)
		}
		if err := applyOne(seq, ev); err != nil {
			return applied, err
		}
	}
	f.recordProgress(frontier, applied)
	return applied, nil
}

// recordProgress updates the follower's view after a poll: connected,
// leader frontier, and (once the applied position has crossed the
// frontier observed at first contact) readiness.
func (f *Follower) recordProgress(frontier uint64, _ int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.connected = true
	f.lastErr = ""
	if frontier > f.leaderSeq {
		f.leaderSeq = frontier
	}
	if f.target == 0 {
		f.target = frontier
	}
	if !f.ready && f.appliedSeq >= f.target {
		f.ready = true
	}
	f.updateLagLocked()
}

func (f *Follower) setDisconnected(err error) {
	f.mu.Lock()
	f.connected = false
	f.lastErr = err.Error()
	f.mu.Unlock()
}

// fail records a fatal replication error: the loop exits and healthz
// reports unready until the follower is restarted (re-bootstrap is
// bounded by the leader's checkpoint interval).
func (f *Follower) fail(err error) {
	f.mu.Lock()
	f.fatal = true
	f.ready = false
	f.connected = false
	f.lastErr = err.Error()
	f.mu.Unlock()
}

// AppliedSeq returns the next sequence the replica will apply (= the
// number of leader events its state reflects).
func (f *Follower) AppliedSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appliedSeq
}

// WaitFor blocks until the replica has applied every event below seq, or
// the timeout expires, or the follower stops (fatal error or Close).
func (f *Follower) WaitFor(seq uint64, timeout time.Duration) error {
	deadline := f.clock.Now().Add(timeout)
	for {
		f.mu.Lock()
		applied, fatal, lastErr := f.appliedSeq, f.fatal, f.lastErr
		f.mu.Unlock()
		if applied >= seq {
			return nil
		}
		if fatal {
			return fmt.Errorf("repl: follower failed at %d/%d: %s", applied, seq, lastErr)
		}
		if f.clock.Now().After(deadline) {
			return fmt.Errorf("repl: timed out at %d/%d (last error: %q)", applied, seq, lastErr)
		}
		select {
		case <-f.ctx.Done():
			return fmt.Errorf("repl: follower closed at %d/%d", applied, seq)
		case <-f.clock.After(time.Millisecond):
		}
	}
}

// stats is the follower's replication view.
func (f *Follower) stats() platform.ReplStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := platform.ReplStats{
		Role:         RoleFollower,
		Ready:        f.ready && !f.fatal,
		AppliedSeq:   f.appliedSeq,
		LeaderSeq:    f.leaderSeq,
		LeaderURL:    f.opts.LeaderURL,
		Connected:    f.connected,
		SnapshotSeq:  f.snapshotSeq,
		Rebootstraps: f.rebootstraps,
		LastError:    f.lastErr,
		Epoch:        f.epoch.Epoch,
		EpochHolder:  f.epoch.Holder,
	}
	if f.leaderSeq > f.appliedSeq {
		st.Lag = f.leaderSeq - f.appliedSeq
	}
	return st
}

// stop halts the stream loop and waits for it. Idempotent.
func (f *Follower) stop() {
	f.mu.Lock()
	already := f.stopped
	f.stopped = true
	f.mu.Unlock()
	f.cancel()
	if !already {
		<-f.done
	}
}

// Close stops the stream loop. The engine keeps serving reads with the
// state it reached.
func (f *Follower) Close() error {
	f.stop()
	return nil
}

// promoted bundles the resources a durable promotion acquires; the Node
// takes ownership and closes them on shutdown. All nil for an ephemeral
// promotion.
type promoted struct {
	leader *Leader
	cp     *platform.Checkpointer
	j      *platform.Journal
	db     *storage.DB
	// warn is a non-fatal degradation (checkpointer failed to attach):
	// the promotion stands, and the Node surfaces this on its stats.
	warn error
}

// promote stops the stream and turns the replica into a leader at its
// applied sequence S, minting tok as the new leadership's fencing token.
// With a DataDir, the state is written as a snapshot record cut at S
// into a fresh store whose journal is seeded to continue at S — so the
// promoted node's history is, by construction, the prefix [0, S) it
// replicated, and surviving followers of the old leader can re-point
// here and resume their streams (any of them behind S must re-bootstrap,
// which the stream's snapshot_required path forces automatically). The
// token is persisted into the same store before the journal opens, so
// the epoch survives any later restart — kill -9 included — exactly like
// the journal cut does. A checkpointer is attached per opts.Checkpoint
// so the promoted journal keeps folding into snapshots, exactly like a
// leader started with -data. Without a DataDir the engine merely becomes
// writable.
//
// The target directory must be empty: promotion half-done into a dirty
// store is indistinguishable from data loss, so it is refused loudly.
func (f *Follower) promote(tok platform.EpochToken) (promoted, error) {
	f.stop()
	f.mu.Lock()
	seq := f.appliedSeq
	f.mu.Unlock()
	if f.opts.DataDir == "" {
		if err := f.engine.Promote(nil); err != nil {
			return promoted{}, err
		}
		return promoted{}, nil
	}
	db, err := storage.Open(f.opts.DataDir, f.opts.Storage)
	if err != nil {
		return promoted{}, fmt.Errorf("repl: promote: open store: %w", err)
	}
	fail := func(err error) (promoted, error) {
		db.Close()
		return promoted{}, err
	}
	if n, err := db.Count(""); err != nil {
		return fail(err)
	} else if n > 0 {
		return fail(fmt.Errorf("repl: promote: %s is not empty (%d keys); refusing to seed a dirty store", f.opts.DataDir, n))
	}
	data, err := f.engine.ExportState(seq)
	if err != nil {
		return fail(fmt.Errorf("repl: promote: export state: %w", err))
	}
	if _, err := storage.WriteSnapshot(db, platform.SnapshotPrefix, 1, seq, data); err != nil {
		return fail(fmt.Errorf("repl: promote: write snapshot: %w", err))
	}
	if err := platform.SeedJournalCut(db, seq); err != nil {
		return fail(err)
	}
	if !tok.IsZero() {
		if err := platform.SetJournalEpoch(db, tok); err != nil {
			return fail(err)
		}
	}
	j, err := platform.OpenJournalOpts(db, f.opts.Journal)
	if err != nil {
		return fail(fmt.Errorf("repl: promote: open journal: %w", err))
	}
	if err := f.engine.Promote(j); err != nil {
		j.Close()
		return fail(err)
	}
	out := promoted{leader: NewLeaderClock(j, db, f.clock), j: j, db: db}
	if co := f.opts.Checkpoint; co.EveryEvents > 0 || co.EveryBytes > 0 {
		cp, err := platform.NewCheckpointer(f.engine, co)
		if err != nil {
			// The promotion itself succeeded (writes are flowing into the
			// seeded journal); running uncheckpointed is degraded, not
			// fatal — same stance as a snapshot-disabled server. The Node
			// reports it on stats/healthz.
			out.warn = fmt.Errorf("repl: promote: checkpointer: %w", err)
		} else {
			out.cp = cp
		}
	}
	return out, nil
}
