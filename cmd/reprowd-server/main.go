// Command reprowd-server runs the crowdsourcing platform as a standalone
// HTTP service — the PyBossa role in the paper's architecture. Reprowd
// programs connect to it with platform.NewHTTPClient (or
// reprowd.NewPlatformHTTPClient), and the CLI/worker simulators can drive
// it over the same REST API.
//
// With -data set, every platform mutation is journaled to an embedded
// internal/storage database before the request returns, and a restarted
// server replays the journal into the internal/sched scheduling
// subsystem. Under the default -sync always, killing the process loses
// at most in-flight leases (which expire by design), never accepted
// projects, tasks or answers — the paper's crash-and-rerun guarantee
// extended from the client library to the platform itself. -sync batch
// and never trade that tail for latency: writes are acknowledged when
// they are queued, not when they are on disk. Under batch the committer
// still fsyncs every group it writes, so a hard kill loses only the
// groups queued or in flight; under never the OS decides when bytes
// reach disk. Integrity holds either way: replay stops at the torn tail.
//
// Journal writes are group-committed: concurrent requests enqueue their
// events and a single committer flushes them as one storage batch with
// one fsync, so -sync always no longer serializes submissions behind
// per-event disk latency. The committer never waits for a group to
// fill: it flushes whatever is queued (up to 1024 events), and under load
// the events that queue up behind one fsync form the next group.
//
// The journal is bounded by a snapshot checkpointer: a background
// goroutine materializes the committed event stream and periodically
// folds the replayed prefix into a versioned snapshot record in the same
// store, truncating the covered events (and compacting the store when
// enough of it is dead). Restart recovery is then load-snapshot +
// replay-tail — O(live state + tail), not O(full history). Two knobs
// set the cadence:
//
//   - -snapshot-every cuts a checkpoint after that many journal events
//     (default 4096; 0 disables the event trigger).
//   - -snapshot-bytes cuts after that much encoded journal growth
//     (default 16 MiB; 0 disables the byte trigger).
//
// Both 0 disables checkpointing entirely (the journal grows unbounded,
// as before this subsystem existed).
//
// GET /api/stats reports the achieved batching (flushed_events/flushes),
// the store's fsync count, and the checkpointer's counters (checkpoints
// taken, last snapshot sequence, journal bytes reclaimed).
//
// With -data set the server is also a replication leader: committed
// journal events stream to followers over GET /api/repl/stream and the
// latest snapshot record over GET /api/repl/snapshot. A follower
// (-follow <leader-url>) bootstraps from the leader's snapshot + journal
// tail — the same bounded recovery path a restart uses — applies the
// live stream through the replay path (byte-identical state by
// construction), and serves the read API with writes redirected to the
// leader. POST /api/repl/promote turns a caught-up follower into a
// leader: with -data set, its state is cut as a snapshot into that
// directory and a fresh journal continues the same sequence numbering.
// GET /api/healthz reports role, catch-up state and replication lag for
// load balancers.
//
// In a partitioned deployment (several leaders fronted by reprowd-gate),
// every server is additionally started with -ring (the comma-separated
// names of all leaders) and -ring-self (this node's name): the engine
// then allocates only ids whose shard key this node owns on the
// consistent-hash ring, which keeps ids globally unique across leaders
// and lets the gateway route any project or task id straight to its
// owner. See docs/OPERATIONS.md for the full bringup walkthrough.
//
// Usage:
//
//	reprowd-server -addr :7070
//	reprowd-server -addr :7070 -data /var/lib/reprowd -sync batch
//	reprowd-server -data /var/lib/reprowd -snapshot-every 10000
//	reprowd-server -data /var/lib/reprowd -break-stale-lock   # after a kill -9
//	reprowd-server -addr :7071 -follow http://leader:7070 -data /var/lib/reprowd-f1
//	curl -X POST http://replica:7071/api/repl/promote      # failover
//	reprowd-server -addr :7070 -data /var/lib/reprowd-n1 -ring n1,n2 -ring-self n1
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/storage"
)

func main() {
	var (
		addr    = flag.String("addr", ":7070", "listen address")
		dataDir = flag.String("data", "",
			"journal directory; empty runs in-memory only (state dies with the process)")
		syncMode = flag.String("sync", "always",
			"journal durability: always (ack after fsync), batch (ack at enqueue, fsync each group), never (ack at enqueue, no fsync)")
		breakStaleLock = flag.Bool("break-stale-lock", false,
			"take over a data directory whose previous owner died without cleanup")
		leaseTTL = flag.Duration("lease-ttl", 0,
			"how long a handed-out task stays reserved for its worker before the scheduler reclaims it (0 = default 10m)")
		snapshotEvery = flag.Uint64("snapshot-every", 4096,
			"checkpoint the journal into a snapshot after this many events (0 disables the event trigger)")
		snapshotBytes = flag.Int64("snapshot-bytes", 16<<20,
			"checkpoint after this many bytes of journal growth (0 disables the byte trigger)")
		follow = flag.String("follow", "",
			"run as a read replica of the leader at this URL; -data then names the promotion target")
		ringNodes = flag.String("ring", "",
			"comma-separated leader names of the partitioned deployment (all servers and the gateway must agree)")
		ringSelf = flag.String("ring-self", "",
			"this node's name in -ring; new ids are drawn only from the ring partition it owns")
		nodeName = flag.String("name", "",
			"this node's stable identity for epoch fencing (defaults to -ring-self); a restarted node whose journal records a later holder's epoch starts fenced")
		partition = flag.String("partition", "",
			"ring partition this node serves (leader default: its own name; follower: the partition it replicates)")
		logLevel = flag.String("log-level", "info",
			"log verbosity: debug, info, warn, error")
		logFormat = flag.String("log-format", "text",
			"structured log format: text or json")
		debugAddr = flag.String("debug-addr", "",
			"optional extra listener for net/http/pprof and expvar (/debug/pprof/, /debug/vars); empty disables")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprowd-server:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)

	ownsID, err := ringOwnership(*ringNodes, *ringSelf)
	if err != nil {
		fatal(logger, err)
	}

	// The one place this binary binds real time and real randomness; every
	// package below takes them injected (the clocklint contract).
	clock := sim.RealClock()
	rnd := sim.RealRand()

	reg := obs.New()
	if *debugAddr != "" {
		ln, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fatal(logger, err)
		}
		logger.Info("debug listener up", "addr", ln.Addr().String(),
			"routes", "/debug/pprof/ /debug/vars")
	}

	opts := platform.EngineOptions{
		Clock:    clock,
		LeaseTTL: *leaseTTL,
		OwnsID:   ownsID,
		Metrics:  reg,
	}

	var (
		db      *storage.DB
		journal *platform.Journal
		node    *repl.Node
	)
	// A bare exit skips deferred calls, and an open store holds a LOCK
	// file that only Close removes — so every fatal path after Open must
	// release the store, or a benign startup failure (port in use, bad
	// journal) would force the operator into -break-stale-lock next run.
	fail := func(err error) {
		if node != nil {
			node.Close()
		}
		if db != nil {
			db.Close()
		}
		fatal(logger, err)
	}
	if *follow != "" {
		// Follower: no local store at startup — state comes from the
		// leader's snapshot + stream, and -data is only claimed if this
		// replica is later promoted.
		policy, err := parseSync(*syncMode)
		if err != nil {
			fatal(logger, err)
		}
		n, err := repl.NewFollowerNode(repl.FollowerOptions{
			LeaderURL: *follow,
			Clock:     clock,
			Rand:      rnd,
			LeaseTTL:  *leaseTTL,
			DataDir:   *dataDir,
			Metrics:   reg,
			Storage: storage.Options{
				Sync:           policy,
				BreakStaleLock: *breakStaleLock,
			},
			// A promoted follower is a full leader: its seeded journal
			// keeps checkpointing on the same cadence flags.
			Checkpoint: platform.CheckpointOptions{
				EveryEvents: *snapshotEvery,
				EveryBytes:  *snapshotBytes,
			},
			// Inert while following; governs id allocation if promoted.
			OwnsID: ownsID,
		})
		if err != nil {
			fatal(logger, err)
		}
		node = n
		setIdentity(node, *nodeName, *ringSelf, *partition, logger)
		engine := node.Engine()
		srv := platform.NewServer(engine)
		srv.Handle("/api/repl/", node.Handler())
		srv.Handle("GET /metrics", reg.Handler())
		st := engine.ReplStats()
		logger.Info("reprowd replica listening", "addr", *addr,
			"leader", *follow, "bootstrap_snapshot_seq", st.SnapshotSeq)
		logger.Info("reads served locally; writes redirect to the leader; POST /api/repl/promote to fail over")
		serve(*addr, obs.AccessLog(logger, srv), logger, func() {
			if err := node.Close(); err != nil {
				logger.Error("closing replication node", "err", err)
			}
		}, fail)
		return
	}
	if *dataDir != "" {
		policy, err := parseSync(*syncMode)
		if err != nil {
			fatal(logger, err)
		}
		db, err = storage.Open(*dataDir, storage.Options{
			Sync:           policy,
			BreakStaleLock: *breakStaleLock,
			Metrics:        reg,
		})
		if err == storage.ErrLocked {
			fmt.Fprintf(os.Stderr,
				"reprowd-server: %s is locked; if the previous server was killed, rerun with -break-stale-lock\n",
				*dataDir)
			os.Exit(1)
		}
		if err != nil {
			fatal(logger, err)
		}
		defer db.Close()
		journal, err = platform.OpenJournalOpts(db, platform.JournalOptions{Metrics: reg})
		if err != nil {
			fail(err)
		}
		opts.Journal = journal
		// Engine recovery replays from the snapshot manifest's cut point
		// (not the trunc record, which lags it if a kill landed between
		// the manifest commit and the truncation).
		replayStart := uint64(0)
		if info, ok, err := storage.ReadSnapshotInfo(db, platform.SnapshotPrefix); err != nil {
			fail(err)
		} else if ok {
			replayStart = info.Seq
		}
		logger.Info("journal open", "dir", *dataDir, "events", journal.Len(),
			"replayed", journal.Len()-replayStart, "snapshot_seq", replayStart,
			"sync", *syncMode)
	}

	engine, err := platform.NewEngineOpts(opts)
	if err != nil {
		fail(err)
	}
	var checkpointer *platform.Checkpointer
	if journal != nil && (*snapshotEvery > 0 || *snapshotBytes > 0) {
		// Attach before serving: the checkpointer seeds its materializer
		// from the engine's recovered state and must not miss an event.
		checkpointer, err = platform.NewCheckpointer(engine, platform.CheckpointOptions{
			EveryEvents: *snapshotEvery,
			EveryBytes:  *snapshotBytes,
		})
		if err != nil {
			fail(err)
		}
		logger.Info("snapshots enabled", "every_events", *snapshotEvery,
			"every_bytes", *snapshotBytes, "tail_start_seq", journal.FirstSeq())
	}
	srv := platform.NewServer(engine)
	srv.Handle("GET /metrics", reg.Handler())
	if journal != nil {
		// A journaled server is a replication leader: followers stream
		// the committed journal and bootstrap from the snapshot record.
		node = repl.NewLeaderNode(engine, journal, db)
		setIdentity(node, *nodeName, *ringSelf, *partition, logger)
		srv.Handle("/api/repl/", node.Handler())
	}

	persisted := "in-memory"
	if *dataDir != "" {
		persisted = *dataDir
	}
	logger.Info("reprowd platform listening", "addr", *addr, "state", persisted)
	logger.Info("routes: PUT /api/projects | POST /api/projects/{id}/tasks | POST /api/projects/{id}/newtask?worker=W | POST /api/tasks/{id}/runs | GET /api/projects/{id}/stats | GET /api/projects/{id}/queue | GET /api/healthz | GET /metrics")
	if node != nil {
		logger.Info("replication: GET /api/repl/stream | GET /api/repl/snapshot | GET /api/repl/status (start a replica with -follow)")
	}

	serve(*addr, obs.AccessLog(logger, srv), logger, func() {
		// Shutdown order matters: drain the journal's committer first (so
		// every acked event is on disk and observed), then stop the
		// checkpointer (a cut in progress finishes; staged events it
		// never cut simply remain as replay tail), then close the store.
		if journal != nil {
			journal.Close()
		}
		if checkpointer != nil {
			checkpointer.Close()
		}
		if node != nil {
			node.Close()
		}
		if db != nil {
			if err := db.Close(); err != nil {
				logger.Error("closing store", "err", err)
			}
		}
	}, fail)
}

// setIdentity binds the node's fencing identity from -name/-ring-self
// and -partition. With an identity set, a leader whose journal records an
// epoch minted to a different holder starts fenced: it was deposed while
// down and must not accept a write before rejoining as a follower.
func setIdentity(node *repl.Node, name, ringSelf, partition string, logger *slog.Logger) {
	if name == "" {
		name = ringSelf
	}
	if name == "" {
		return
	}
	if partition == "" {
		partition = name
	}
	node.SetIdentity(name, partition)
	if node.Fenced() {
		logger.Warn("node starts fenced: its journal records a later epoch minted to another holder",
			"name", name, "partition", partition, "epoch", node.EpochToken().String())
	}
}

// fatal logs the error through the structured logger and exits. Paths
// holding open resources must go through the main function's fail
// closure instead, which releases them first (slog has no Fatal, and an
// exit here would skip deferred closes exactly like log.Fatal did).
func fatal(logger *slog.Logger, err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains it and
// runs shutdown. An ordinary stop must flush journals and release store
// LOCK files; only a hard kill should leave a stale lock for
// -break-stale-lock.
func serve(addr string, handler http.Handler, logger *slog.Logger, shutdown func(), fail func(error)) {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	httpSrv := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		fail(err)
	case sig := <-stop:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		shutdown()
	}
}

// ringOwnership builds the id-allocation filter for a partitioned
// deployment: with -ring n1,n2,... and -ring-self nK, this node only
// allocates ids whose shard key it owns on the ring — ids stay globally
// unique across leaders and a ring-routed gateway (reprowd-gate, given
// the same names) can route any id straight to its creator. Both flags
// empty means standalone (every id accepted).
func ringOwnership(nodes, self string) (func(int64) bool, error) {
	if nodes == "" && self == "" {
		return nil, nil
	}
	if nodes == "" || self == "" {
		return nil, fmt.Errorf("reprowd-server: -ring and -ring-self must be set together")
	}
	var names []string
	found := false
	for _, n := range strings.Split(nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
			found = found || n == self
		}
	}
	if !found {
		return nil, fmt.Errorf("reprowd-server: -ring-self %q is not in -ring %q", self, nodes)
	}
	ring := repl.NewRing(0, names...)
	return func(id int64) bool { return ring.Lookup(id) == self }, nil
}

func parseSync(mode string) (storage.SyncPolicy, error) {
	switch mode {
	case "always":
		return storage.SyncAlways, nil
	case "batch":
		return storage.SyncBatch, nil
	case "never":
		return storage.SyncNever, nil
	default:
		return 0, fmt.Errorf("reprowd-server: unknown -sync mode %q (want always, batch, or never)", mode)
	}
}
