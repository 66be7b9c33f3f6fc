// Command reprowd-gate runs the ring-routed gateway (internal/gate): the
// stateless front door that makes a partitioned reprowd deployment — N
// leaders created with matching -ring/-ring-self flags, plus their
// -follow replicas — look like a single reprowd-server to every client.
//
// Writes are routed to the leader owning the project's ring partition
// (retrying ring successors when the owner is down), reads fan out to
// caught-up followers (falling back to the leader when replication lag
// exceeds -max-lag), and 307s from demoted nodes are followed and refresh
// the gateway's role view. The gateway keeps no durable state: kill it,
// restart it, or run several behind a TCP balancer.
//
// Membership comes from -topology (a JSON file, re-read when its mtime
// changes) or -nodes (inline), and can be replaced at runtime with
// POST /api/gate/topology. Roles are never configured — the gateway
// probes every node's GET /api/healthz and discovers who leads, who
// follows whom, and how far behind each follower is.
//
// Topology file shape:
//
//	{"nodes": [
//	  {"name": "n1", "url": "http://10.0.0.1:7070"},
//	  {"name": "n2", "url": "http://10.0.0.2:7070"},
//	  {"name": "f1", "url": "http://10.0.0.3:7071"}
//	]}
//
// Names must match the servers' -ring flags (ring hashing is over names);
// follower URLs must equal the -follow URL those followers were started
// with (that is how the gateway associates replicas to their leader).
//
// Usage:
//
//	reprowd-gate -addr :7080 -topology /etc/reprowd/topology.json
//	reprowd-gate -addr :7080 -nodes "n1=http://localhost:7070,n2=http://localhost:7072"
//	curl -X POST -d @topology.json http://localhost:7080/api/gate/topology
//	curl http://localhost:7080/api/gate/stats
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gate"
	"repro/internal/obs"
	"repro/internal/sim"
)

// topologyReloadInterval is how often the -topology file's mtime is
// checked.
const topologyReloadInterval = 2 * time.Second

func main() {
	var (
		addr     = flag.String("addr", ":7080", "listen address")
		topoPath = flag.String("topology", "",
			"JSON topology file ({\"nodes\":[{\"name\",\"url\"},...]}); re-read when its mtime changes")
		nodesFlag = flag.String("nodes", "",
			"inline topology: comma-separated name=url pairs (alternative to -topology)")
		maxLag = flag.Uint64("max-lag", gate.DefaultMaxLag,
			"max replication lag (events) at which a follower still serves reads")
		maxBodyBuffer = flag.Int64("max-body-buffer", gate.DefaultMaxBodyBytes,
			"max request-body bytes buffered for retry-on-successor replay; bodies over this are rejected with 413 (raise for very large AddTasks batches)")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond,
			"how often every node's /api/healthz is probed")
		logLevel = flag.String("log-level", "info",
			"log verbosity: debug, info, warn, error")
		logFormat = flag.String("log-format", "text",
			"structured log format: text or json")
		debugAddr = flag.String("debug-addr", "",
			"optional extra listener for net/http/pprof and expvar (/debug/pprof/, /debug/vars); empty disables")
		failover = flag.Bool("failover", false,
			"run the elector: when a partition leader stays unreachable past -failover-after, promote its most-caught-up follower under a fresh fencing epoch, and fence deposed leaders that resurface")
		failoverAfter = flag.Duration("failover-after", 3*time.Second,
			"unreachability window before the elector treats a partition leader as dead (probe blips shorter than this never cost a leader its partition)")
		failoverMaxLag = flag.Uint64("failover-max-lag", 0,
			"max events a follower may trail the dead leader's last probed frontier and still be promoted (0 = must hold everything the leader was last seen with)")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprowd-gate:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}

	reg := obs.New()
	if *debugAddr != "" {
		ln, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fatal(err)
		}
		logger.Info("debug listener up", "addr", ln.Addr().String(),
			"routes", "/debug/pprof/ /debug/vars")
	}

	top, err := loadTopology(*topoPath, *nodesFlag)
	if err != nil {
		fatal(err)
	}
	g, err := gate.New(gate.Options{
		Topology:       top,
		MaxLag:         *maxLag,
		ProbeInterval:  *probeInterval,
		Metrics:        reg,
		ReadCache:      true,
		MaxBodyBytes:   *maxBodyBuffer,
		AutoFailover:   *failover,
		FailoverAfter:  *failoverAfter,
		FailoverMaxLag: *failoverMaxLag,
		// Real time and real jitter bind here, at the binary's edge;
		// internal/gate itself only ever sees the injected pair.
		Clock: sim.RealClock(),
		Rand:  sim.RealRand(),
	})
	if err != nil {
		fatal(err)
	}
	defer g.Close()

	if *topoPath != "" {
		go watchTopology(g, *topoPath, logger)
	}

	// The gateway handles the whole path space itself; /metrics is the
	// one route mounted beside it.
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("/", g)

	logger.Info("reprowd-gate listening", "addr", *addr, "nodes", len(top.Nodes),
		"max_lag", *maxLag, "probe_interval", probeInterval.String())
	logger.Info("routes: the full platform REST surface, ring-routed | GET /api/gate/stats | GET/POST /api/gate/topology | GET /api/healthz | GET /metrics")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	httpSrv := &http.Server{Addr: *addr, Handler: obs.AccessLog(logger, mux)}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-stop:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}
}

// loadTopology reads the initial membership from -topology or -nodes.
func loadTopology(path, inline string) (gate.Topology, error) {
	switch {
	case path != "" && inline != "":
		return gate.Topology{}, fmt.Errorf("reprowd-gate: -topology and -nodes are mutually exclusive")
	case path != "":
		return readTopologyFile(path)
	case inline != "":
		return parseNodes(inline)
	default:
		return gate.Topology{}, fmt.Errorf("reprowd-gate: need -topology <file> or -nodes name=url,...")
	}
}

func readTopologyFile(path string) (gate.Topology, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return gate.Topology{}, fmt.Errorf("reprowd-gate: read topology: %w", err)
	}
	var t gate.Topology
	if err := json.Unmarshal(buf, &t); err != nil {
		return gate.Topology{}, fmt.Errorf("reprowd-gate: parse %s: %w", path, err)
	}
	return t, t.Validate()
}

func parseNodes(inline string) (gate.Topology, error) {
	var t gate.Topology
	for _, pair := range strings.Split(inline, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return t, fmt.Errorf("reprowd-gate: -nodes entry %q is not name=url", pair)
		}
		t.Nodes = append(t.Nodes, gate.NodeConfig{Name: name, URL: url})
	}
	return t, t.Validate()
}

// watchTopology hot-reloads the topology file when its mtime changes. A
// file that fails to parse (or to validate) is logged and skipped — the
// gateway keeps routing on its last good membership; never take down the
// front door over a half-edited config.
func watchTopology(g *gate.Gateway, path string, logger *slog.Logger) {
	var last time.Time
	if fi, err := os.Stat(path); err == nil {
		last = fi.ModTime()
	}
	for range time.Tick(topologyReloadInterval) {
		fi, err := os.Stat(path)
		if err != nil || !fi.ModTime().After(last) {
			continue
		}
		last = fi.ModTime()
		t, err := readTopologyFile(path)
		if err != nil {
			logger.Warn("topology reload skipped", "err", err)
			continue
		}
		if err := g.SetTopology(t); err != nil {
			logger.Warn("topology reload rejected", "err", err)
			continue
		}
		logger.Info("topology reloaded", "nodes", len(t.Nodes))
	}
}
