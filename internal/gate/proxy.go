package gate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/repl"
)

// DefaultMaxBodyBytes is the default request-body cap. The gateway reads
// each proxied request body whole, up to this cap, and replays those
// bytes on every candidate attempt (see readBody), so the cap bounds the
// memory one in-flight request holds. Raise it via Options.MaxBodyBytes
// (the -max-body-buffer flag) when single AddTasks batches exceed it; a
// body over the cap is rejected with 413 before any node sees a byte.
const DefaultMaxBodyBytes int64 = 32 << 20

// maxErrBody caps how much of an upstream error response is buffered
// while deciding whether to keep trying other nodes.
const maxErrBody = 64 << 10

// routeName labels a request class for the per-route metrics vec.
func routeName(c reqClass) string {
	switch c {
	case classWrite:
		return "write"
	case classRead:
		return "read"
	case classEnsure:
		return "ensure"
	case classListProjects:
		return "list_projects"
	case classFind:
		return "find"
	case classNodeStats:
		return "node_stats"
	}
	return "unknown"
}

// statusRecorder captures the response status for the per-route error
// counter, forwarding Flush so streamed bodies keep flowing.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(b)
}

func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP implements http.Handler: the full platform REST surface,
// routed, plus the gateway's own /api/healthz and /api/gate/* endpoints.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// The trace id rides the request header from here on: forward()
	// copies headers wholesale, so every proxied hop — including followed
	// 307s — carries it without further plumbing. The fan-out paths that
	// mint fresh requests set it explicitly.
	trace := obs.EnsureTrace(r)
	w.Header().Set(obs.HeaderTrace, trace)
	switch {
	case r.URL.Path == "/api/healthz" && r.Method == http.MethodGet:
		g.handleHealthz(w)
		return
	case strings.HasPrefix(r.URL.Path, "/api/gate/"):
		g.handleGate(w, r)
		return
	}
	pl := classify(r)
	if g.m.errors != nil {
		rec := &statusRecorder{ResponseWriter: w}
		w = rec
		defer func() {
			if rec.status >= 500 {
				g.m.errors.With(routeName(pl.class)).Inc()
			}
		}()
	}
	body, err := readBody(r, g.opts.MaxBodyBytes)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errBodyTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeGateErr(w, status, "bad_request", err.Error())
		return
	}
	switch pl.class {
	case classWrite:
		g.handleWrite(w, r, pl, body)
	case classRead:
		g.handleRead(w, r, pl, body)
	case classEnsure:
		g.handleEnsure(w, r, body)
	case classListProjects:
		g.handleListProjects(w, r)
	case classFind:
		g.handleFind(w, r, pl)
	case classNodeStats:
		g.handleNodeStats(w, r)
	default:
		writeGateErr(w, http.StatusNotFound, "unknown_route",
			"gate: no such route (replication endpoints are served by the nodes directly)")
	}
}

// --- plumbing ---

// apiError mirrors the platform's JSON error body.
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeGateErr(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: msg, Code: code})
}

// hopHeaders are not forwarded in either direction.
var hopHeaders = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Authenticate": true,
	"Proxy-Authorization": true, "Te": true, "Trailer": true,
	"Transfer-Encoding": true, "Upgrade": true,
}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		ck := http.CanonicalHeaderKey(k)
		if hopHeaders[ck] {
			continue
		}
		// The gateway stamps the trace id on the client response before
		// relaying; every node on the path echoes the same id, so copying
		// the upstream echo would only duplicate the header.
		if ck == obs.HeaderTrace && dst.Get(ck) != "" {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

var errBodyTooLarge = errors.New("gate: request body over size cap")

// readBody reads a request body whole, capped at max bytes. The gateway
// reads each proxied body once and replays the bytes on every candidate
// attempt and followed 307 (see forward), so a retried write carries
// exactly what the client sent. A body over the cap — declared or
// actual — wraps errBodyTooLarge; any other error is a failed read.
func readBody(r *http.Request, max int64) ([]byte, error) {
	if r.ContentLength > max {
		return nil, fmt.Errorf("%w (%d bytes)", errBodyTooLarge, max)
	}
	if r.Body == nil || r.Body == http.NoBody {
		return nil, nil
	}
	defer r.Body.Close()
	body, err := io.ReadAll(io.LimitReader(r.Body, max+1))
	if err != nil {
		return nil, fmt.Errorf("gate: read request body: %w", err)
	}
	if int64(len(body)) > max {
		return nil, fmt.Errorf("%w (%d bytes)", errBodyTooLarge, max)
	}
	return body, nil
}

// forward sends one upstream attempt: the client's method and headers
// against URL u, with a fresh reader over the body bytes. Every candidate
// attempt and every followed 307 is built here.
func (g *Gateway) forward(r *http.Request, u string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, rd)
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, r.Header)
	return g.hc.Do(req)
}

// relay streams an upstream response back to the client.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// HeaderTruncated marks a relayed error body the gateway could not keep
// whole: it overran maxErrBody, or the upstream connection tore mid-read.
// The status and code are intact; only the error text may be cut short.
const HeaderTruncated = "X-Reprowd-Gate-Truncated"

// buffered is a fully read upstream response, kept aside while other
// candidates are tried, relayable later.
type buffered struct {
	status    int
	header    http.Header
	body      []byte
	truncated bool  // body cut at maxErrBody
	readErr   error // upstream tore mid-body; body is a prefix
}

func bufferResp(resp *http.Response) buffered {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxErrBody+1))
	b := buffered{status: resp.StatusCode, header: resp.Header.Clone(), body: body, readErr: err}
	if len(body) > maxErrBody {
		b.body = body[:maxErrBody]
		b.truncated = true
	}
	// A truncated or torn body no longer matches the upstream
	// Content-Length; replaying it would make the server abort the
	// connection mid-response. Let it recompute.
	b.header.Del("Content-Length")
	return b
}

func (b buffered) relay(w http.ResponseWriter) {
	copyHeaders(w.Header(), b.header)
	if b.truncated || b.readErr != nil {
		w.Header().Set(HeaderTruncated, "true")
	}
	w.WriteHeader(b.status)
	w.Write(b.body)
}

// errCode decodes the platform error code out of a buffered response.
func (b buffered) errCode() string {
	var ae apiError
	if err := json.Unmarshal(b.body, &ae); err != nil {
		return ""
	}
	return ae.Code
}

// isMissCode reports a typed "this node does not know the id/name" —
// the signal to go discover the owner elsewhere (ring drift).
func isMissCode(code string) bool {
	return code == "unknown_project" || code == "unknown_task"
}

// attemptOutcome classifies one forwarded attempt.
type attemptOutcome int

const (
	outcomeDone      attemptOutcome = iota // response relayed to the client
	outcomeRetryable                       // node down/overloaded: try the next candidate
	outcomeMiss                            // typed 404: this partition doesn't know the id
)

// keeps holds the most recent buffered upstream responses per outcome
// class while other candidates are tried. Misses and transient errors
// are kept apart: which one the client finally sees depends on whether
// every partition got to give a definitive answer (see run).
type keeps struct {
	miss buffered // typed 404 (unknown_project/unknown_task)
	err  buffered // retryable 5xx
}

// attempt forwards the request to one target and classifies the result.
// A 307 from a demoted node is followed once (the redirect target is the
// leader the node itself points at) and triggers a ring re-probe either
// way.
//
// Writes are stamped with the target partition's max observed fencing
// token (platform.HeaderEpoch). The stamp is what makes routing mistakes
// safe instead of merely unlikely: a deposed leader the gateway has not
// re-probed yet rejects the stamped write with 409 stale_epoch — and
// permanently fences itself — rather than accepting a write onto a dead
// timeline. The 409 is treated as retryable, so the walk carries the
// write to the partition's real leader.
func (g *Gateway) attempt(w http.ResponseWriter, r *http.Request, t target, body []byte, keep *keeps, isWrite bool) (attemptOutcome, target) {
	if isWrite && t.partition != "" {
		if tok := g.partitionToken(t.partition); !tok.IsZero() {
			r.Header.Set(platform.HeaderEpoch, tok.String())
		}
	}
	u := t.node.cfg.url + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	resp, err := g.forward(r, u, body)
	if err != nil {
		g.bookFailure(t.node)
		g.kickProbe()
		return outcomeRetryable, t
	}
	if resp.StatusCode == http.StatusTemporaryRedirect {
		// The node is (now) a follower and names its leader; our role view
		// is stale. Follow the redirect and refresh the ring.
		loc := resp.Header.Get("Location")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		g.stats.Redirects.Add(1)
		g.kickProbe()
		if loc == "" {
			return outcomeRetryable, t
		}
		if redirected, ok := g.nodeByLocation(loc); ok {
			t = redirected
		} else {
			// The redirect points outside the known topology. Follow it
			// anyway, but attribute nothing to the demoted node we left:
			// booking a success there would skew its counters and teach the
			// route cache the wrong owner. finish() skips nil-node targets;
			// the next probe round establishes the real owner.
			t = target{}
		}
		resp, err = g.forward(r, loc, body)
		if err != nil {
			g.bookFailure(t.node)
			return outcomeRetryable, t
		}
		if resp.StatusCode == http.StatusTemporaryRedirect {
			// Two hops means the topology is churning; let a candidate walk
			// or the client's retry land after the next probe.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return outcomeRetryable, t
		}
	}
	if platform.RetryableStatus(resp.StatusCode) {
		keep.err = bufferResp(resp)
		g.bookFailure(t.node)
		g.kickProbe()
		return outcomeRetryable, t
	}
	if resp.StatusCode == http.StatusConflict {
		// A stale-epoch 409 is the fencing token doing its job: the node we
		// picked was deposed and just found out from our stamp. Walk on —
		// the partition's real leader is a later candidate — and re-probe so
		// the view catches up. Any other 409 is an application conflict and
		// belongs to the client.
		b := bufferResp(resp)
		if b.errCode() == "stale_epoch" {
			keep.err = b
			g.bookFailure(t.node)
			g.kickProbe()
			return outcomeRetryable, t
		}
		b.relay(w)
		return outcomeDone, t
	}
	if resp.StatusCode == http.StatusNotFound {
		b := bufferResp(resp)
		if isMissCode(b.errCode()) {
			keep.miss = b
			return outcomeMiss, t
		}
		b.relay(w)
		return outcomeDone, t
	}
	relay(w, resp)
	return outcomeDone, t
}

// isLeaderNode reads a node's probed role under the lock. A nil node (a
// redirect target outside the known topology) has no probed role.
func (g *Gateway) isLeaderNode(n *nodeState) bool {
	if n == nil {
		return false
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return isLeaderRole(n.role)
}

// unknownNodeDown reports whether any configured node is unreachable and
// was never successfully probed (role still ""). Such a node got no
// chance to speak: it joins neither the ring nor leaderTargets, so the
// usual leaderDown bookkeeping cannot count it — yet it may well be the
// leader of a partition this gateway simply cannot see. While one exists,
// a typed 404 ("no partition knows this id") cannot be trusted. The
// stateless gateway restarting during a node outage hits exactly this
// window, for the whole remainder of the outage.
func (g *Gateway) unknownNodeDown() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, n := range g.nodes {
		if n.role == "" && !n.reachable {
			return true
		}
	}
	return false
}

// nodeByLocation maps a redirect Location onto a known node.
func (g *Gateway) nodeByLocation(loc string) (target, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, n := range g.nodes {
		if strings.HasPrefix(loc, n.cfg.url+"/") || loc == n.cfg.url {
			return target{node: n, partition: n.partitionName()}, true
		}
	}
	return target{}, false
}

// run drives a request through its candidate targets: relay the first
// definitive response; on typed 404s, widen to the remaining leaders
// (owner discovery after ring drift); if everything is down, surface the
// most recent upstream error. It returns the target that served the
// relayed response (ok=false when no attempt produced one).
func (g *Gateway) run(w http.ResponseWriter, r *http.Request, pl plan, targets []target, isWrite bool, body []byte) (target, bool) {
	if len(targets) == 0 {
		writeGateErr(w, http.StatusBadGateway, "no_leader",
			"gate: no leader known for this partition (topology empty or all nodes unprobed)")
		return target{}, false
	}
	var keep keeps
	var sawMiss bool
	// leaderDown records a leader that never gave a definitive answer. A
	// typed 404 is only the truth when every leader got to speak — the
	// unreachable one might be the id's real owner, and telling the
	// client "unknown task" during a failover window would make it drop
	// the write for good (typed errors are not retried). It starts true
	// when a configured node has never answered a probe: that node is in
	// neither the ring nor leaderTargets, so nothing below could count it,
	// but it may be a leader whose partition never gets to speak.
	leaderDown := g.unknownNodeDown()
	tried := make(map[string]bool, len(targets))
	for i, t := range targets {
		if i > 0 {
			g.stats.Retries.Add(1)
		}
		tried[t.partition] = true
		outcome, served := g.attempt(w, r, t, body, &keep, isWrite)
		switch outcome {
		case outcomeDone:
			g.finish(pl, served, isWrite)
			return served, true
		case outcomeRetryable:
			// A nil served node is an out-of-topology redirect target — the
			// leader a demoted node pointed at — so its failure is a leader
			// failure too.
			if served.node == nil || g.isLeaderNode(served.node) {
				leaderDown = true
			}
		case outcomeMiss:
			sawMiss = true
			// A *leader* answering "unknown id" is healthy and definitive
			// for its partition: stop walking its chain and go ask the
			// other partitions. A follower's 404 may just be replication
			// lag — keep walking toward the leader.
			if g.isLeaderNode(served.node) {
				goto discover
			}
		}
	}
discover:
	if sawMiss {
		g.stats.Misses.Add(1)
		for _, t := range g.leaderTargets(tried) {
			outcome, served := g.attempt(w, r, t, body, &keep, isWrite)
			if outcome == outcomeDone {
				g.finish(pl, served, isWrite)
				return served, true
			}
			if outcome == outcomeRetryable &&
				(served.node == nil || g.isLeaderNode(served.node)) {
				leaderDown = true
			}
		}
		if !leaderDown {
			// Every leader answered and nobody knows the id: the buffered
			// typed 404 is the true answer.
			keep.miss.relay(w)
			return target{}, false
		}
	}
	if keep.err.status != 0 {
		keep.err.relay(w)
		return target{}, false
	}
	writeGateErr(w, http.StatusBadGateway, "unreachable",
		"gate: no node that could answer definitively is reachable")
	return target{}, false
}

// finish books a successfully relayed request: counters and the learned
// owner route.
func (g *Gateway) finish(pl plan, served target, isWrite bool) {
	// Gateway-wide counters always book the relayed request, even when it
	// was served via a redirect target outside the known topology (a nil
	// node — which, being the leader a demoted node named, counts as a
	// leader read).
	if isWrite {
		g.stats.WritesRouted.Add(1)
	} else {
		follower := false
		if served.node != nil {
			g.mu.RLock()
			follower = served.node.role == repl.RoleFollower
			g.mu.RUnlock()
		}
		if follower {
			g.stats.ReadsFollower.Add(1)
		} else {
			g.stats.ReadsLeader.Add(1)
		}
	}
	if served.node == nil {
		// Out-of-topology redirect target: no per-node attribution and no
		// route to learn — crediting the node we were redirected away from
		// would cache the scope under the wrong partition.
		g.m.requests.With(routeName(pl.class), "external").Inc()
		return
	}
	g.m.requests.With(routeName(pl.class), served.node.cfg.name).Inc()
	if isWrite {
		served.node.writes.Add(1)
	} else {
		served.node.reads.Add(1)
	}
	g.learnRoute(pl.scope, served.partition)
}

// --- the routed handlers ---

func (g *Gateway) handleWrite(w http.ResponseWriter, r *http.Request, pl plan, body []byte) {
	served, ok := g.run(w, r, pl, g.writeTargets(pl), true, body)
	if ok {
		g.noteWrite(served)
	}
}

// noteWrite bumps the relayed write's partition epoch in the read cache:
// every cached read of that partition is stale the moment the write
// response returns — no probe round-trip in between, and no dependence
// on the write response's frontier tag (fast-acked writes can return
// before the group commit advances the journal sequence).
func (g *Gateway) noteWrite(served target) {
	if g.cache == nil || served.partition == "" {
		return
	}
	g.cache.bumpEpoch(served.partition)
}

func (g *Gateway) handleRead(w http.ResponseWriter, r *http.Request, pl plan, body []byte) {
	if g.cache == nil || r.Method != http.MethodGet {
		g.run(w, r, pl, g.readTargets(pl), false, body)
		return
	}
	t0 := obs.Now()
	key := r.URL.Path
	if r.URL.RawQuery != "" {
		key += "?" + r.URL.RawQuery
	}
	if e, ok := g.cache.lookup(key); ok && g.cacheFresh(e) {
		g.stats.CacheHits.Add(1)
		e.relay(w)
		if g.m.cacheHit != nil {
			g.m.cacheHit.Observe(obs.Since(t0).Seconds())
		}
		return
	}
	g.stats.CacheMisses.Add(1)
	epochs := g.cache.epochSnapshot()
	cw := &captureWriter{ResponseWriter: w}
	served, ok := g.run(cw, r, pl, g.readTargets(pl), false, body)
	if g.m.cacheMiss != nil {
		g.m.cacheMiss.Observe(obs.Since(t0).Seconds())
	}
	if !ok || served.node == nil || !cw.cacheable() {
		return
	}
	frontier, _ := strconv.ParseUint(cw.Header().Get(platform.HeaderFrontier), 10, 64)
	if frontier == 0 {
		// No frontier tag (in-memory engine, or an old node): nothing to
		// key freshness on, so the response must not be cached.
		return
	}
	hdr := cw.Header().Clone()
	hdr.Del(obs.HeaderTrace) // each hit carries its own request's trace id
	g.cache.store(key, &cacheEntry{
		partition: served.partition,
		frontier:  frontier,
		epoch:     epochs[served.partition],
		header:    hdr,
		body:      append([]byte(nil), cw.buf.Bytes()...),
	})
}

// captureWriter tees a relayed read response into memory on its way to
// the client so it can enter the frontier cache. Oversized bodies fall
// out of capture (the relay itself is unaffected).
type captureWriter struct {
	http.ResponseWriter
	status   int
	buf      bytes.Buffer
	overflow bool
}

func (c *captureWriter) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(b []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	if !c.overflow {
		if c.buf.Len()+len(b) <= maxCacheBody {
			c.buf.Write(b)
		} else {
			c.overflow = true
			c.buf.Reset()
		}
	}
	return c.ResponseWriter.Write(b)
}

func (c *captureWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// cacheable reports whether the captured response may enter the cache:
// a complete 200 body under the size cap.
func (c *captureWriter) cacheable() bool {
	return c.status == http.StatusOK && !c.overflow
}

// handleEnsure places PUT /api/projects. The project name decides the
// partition; before creating, the gateway must know whether the name
// already lives on some leader (it would, if the ring has grown since it
// was created) so an ensure stays an ensure instead of minting a
// duplicate. That knowledge has to be definitive — an unanswered
// partition (or a configured node that was never probed) might be
// exactly where the name lives, so the ensure comes back retryable
// rather than guessing. And an ensure only ever targets one leader (the
// known holder, else the name's ring owner) — never the ring-successor
// walk id writes get. A wrong leader answers an id write with a typed
// 404, but it would answer an ensure by creating: walking on a transient
// owner failure could race a concurrent ensure (or an owner that
// committed before 503ing) into a permanent cross-partition duplicate.
// A failed ensure is retryable; a duplicate name is forever.
func (g *Gateway) handleEnsure(w http.ResponseWriter, r *http.Request, body []byte) {
	var spec struct {
		Name string `json:"name"`
	}
	// Undecodable bodies route anywhere — the node's own validation
	// produces the right 400.
	json.Unmarshal(body, &spec)
	pl := plan{class: classEnsure, name: spec.Name}
	owner := "" // partition the name is known to live on
	if spec.Name != "" {
		pl.scope = "n/" + spec.Name
		g.mu.RLock()
		if cached, ok := g.routes[pl.scope]; ok {
			if g.partLeaderLocked(cached) != nil {
				owner = cached
			}
		}
		leaders := len(g.ring.Nodes())
		g.mu.RUnlock()
		if owner == "" {
			if g.unknownNodeDown() {
				writeGateErr(w, http.StatusBadGateway, "unreachable",
					"gate: cannot place project name: a configured node has never answered a probe and may already hold it")
				return
			}
			if leaders > 1 {
				found, name, err := g.findOwner(r, spec.Name)
				if err != nil {
					writeGateErr(w, http.StatusBadGateway, "unreachable",
						"gate: cannot place project name: "+err.Error())
					return
				}
				if found {
					owner = name
					g.learnRoute(pl.scope, owner)
				}
			}
		}
	}
	if owner == "" {
		// Verified absent everywhere (or a single-leader topology): the
		// name may only be created on its ring owner.
		g.mu.RLock()
		chain := g.ownerChainLocked(pl)
		g.mu.RUnlock()
		if len(chain) > 0 {
			owner = chain[0]
		}
	}
	served, ok := g.run(w, r, pl, g.partitionWriteTarget(owner), true, body)
	if ok {
		g.noteWrite(served)
	}
}

// partitionWriteTarget is the single write target of a named partition:
// its leader, nothing else. Used by ensure once the owning partition is
// known — if that leader is out, the answer is a retryable error, not a
// walk onto a node that would mint a duplicate.
func (g *Gateway) partitionWriteTarget(name string) []target {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := g.partLeaderLocked(name)
	if n == nil {
		return nil
	}
	return []target{{node: n, partition: name}}
}

// findOwner asks every partition whether it already has the named
// project. Each partition must answer definitively: 200 means "here"
// (a caught-up follower's word counts — found is found), and only the
// leader's 404 means "definitely not here" (a follower's 404 may be
// replication lag). A partition that gives neither makes the whole find
// indeterminate — the name might live exactly there, and creating on a
// guess would mint a permanent duplicate — so the error tells ensure to
// answer retryable instead.
func (g *Gateway) findOwner(r *http.Request, name string) (found bool, owner string, err error) {
	g.stats.Fanouts.Add(1)
	parts := g.leaderTargets(nil)
	// Partitions are probed concurrently — their answers are independent,
	// and a serial walk would put O(partitions) round-trips in front of
	// every new-name ensure.
	type verdict struct {
		partition string
		found     bool
		no        bool // the partition definitively does not hold the name
	}
	results := make(chan verdict, len(parts))
	for _, t := range parts {
		go func(t target) {
			v := verdict{partition: t.partition}
			defer func() { results <- v }()
			// partitionReadTargets lists followers first, leader last; walk
			// it backwards so the leader — whose 200 AND 404 are both
			// definitive — is asked first, and follower round-trips (only
			// their 200 counts) are spent solely when the leader cannot
			// answer.
			rts := g.partitionReadTargets(t.partition)
			for i := len(rts) - 1; i >= 0; i-- {
				rt := rts[i]
				status, rerr := g.findStatus(r, rt.node.cfg.url, name)
				if rerr != nil {
					g.bookFailure(rt.node)
					g.kickProbe()
					continue
				}
				if status == http.StatusOK {
					v.found = true
					return
				}
				// A 404 relayed through a demoted node's 307 is the serving
				// leader's word — definitive for this partition's lineage,
				// exactly the trust the write path places in a followed 307.
				if status == http.StatusNotFound && rt.node == t.node {
					v.no = true
					return
				}
			}
		}(t)
	}
	indeterminate := ""
	for range parts {
		v := <-results
		if v.found {
			// The buffered channel lets the remaining probes finish on
			// their own; a positive hit is the answer regardless of what
			// the other partitions say.
			return true, v.partition, nil
		}
		if !v.no && indeterminate == "" {
			indeterminate = v.partition
		}
	}
	if indeterminate != "" {
		return false, "", fmt.Errorf("partition %q did not answer whether it holds the name", indeterminate)
	}
	return false, "", nil
}

// findStatus performs one find GET against a node, following a single
// 307 (a demoted node pointing at its current leader) the same way the
// write path does.
func (g *Gateway) findStatus(r *http.Request, base, name string) (int, error) {
	u := base + "/api/projects/find?name=" + url.QueryEscape(name)
	for hop := 0; ; hop++ {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u, nil)
		if err != nil {
			return 0, err
		}
		req.Header.Set(obs.HeaderTrace, obs.TraceID(r))
		resp, err := g.hc.Do(req)
		if err != nil {
			return 0, err
		}
		loc := resp.Header.Get("Location")
		status := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if status == http.StatusTemporaryRedirect {
			g.kickProbe()
			if loc != "" && hop == 0 {
				g.stats.Redirects.Add(1)
				u = loc
				continue
			}
			return 0, fmt.Errorf("gate: find redirected more than once")
		}
		return status, nil
	}
}

// handleFind serves GET /api/projects/find by walking the partitions in
// ring order (the name's owner first, so the common case is one hop).
func (g *Gateway) handleFind(w http.ResponseWriter, r *http.Request, pl plan) {
	g.stats.Fanouts.Add(1)
	g.mu.RLock()
	chain := g.ownerChainLocked(pl)
	g.mu.RUnlock()
	var keep keeps
	var sawMiss bool
	// As in run: a typed miss is only definitive once every partition
	// answered, and a configured-but-never-probed node may be a partition
	// this gateway cannot see at all.
	leaderDown := g.unknownNodeDown()
	for _, leader := range chain {
		partitionAnswered := false
		for _, t := range g.partitionReadTargets(leader) {
			outcome, served := g.attempt(w, r, t, nil, &keep, false)
			if outcome == outcomeDone {
				g.finish(pl, served, false)
				return
			}
			if outcome == outcomeMiss {
				sawMiss = true
				if g.isLeaderNode(served.node) {
					partitionAnswered = true
					break // definitive for this partition; ask the next
				}
			}
		}
		if !partitionAnswered {
			leaderDown = true
		}
	}
	if sawMiss && !leaderDown {
		keep.miss.relay(w)
		return
	}
	if keep.err.status != 0 {
		keep.err.relay(w)
		return
	}
	writeGateErr(w, http.StatusBadGateway, "unreachable",
		"gate: no partition that could answer definitively is reachable")
}

// handleListProjects merges GET /api/projects across every partition.
// Each partition is served by a caught-up follower when one exists. Any
// partition that cannot answer fails the merge — a silently partial
// project list would read as truth.
func (g *Gateway) handleListProjects(w http.ResponseWriter, r *http.Request) {
	g.stats.Fanouts.Add(1)
	if g.unknownNodeDown() {
		// An unprobed node may be a leader whose partition is missing from
		// the ring entirely; merging without it would be exactly the
		// silently partial list this handler refuses to produce.
		writeGateErr(w, http.StatusBadGateway, "partial",
			"gate: a configured node has never answered a probe; refusing to return a possibly-partial project list")
		return
	}
	g.mu.RLock()
	leaders := g.ring.Nodes()
	g.mu.RUnlock()
	if len(leaders) == 0 {
		writeGateErr(w, http.StatusBadGateway, "no_leader", "gate: no leaders known")
		return
	}
	var merged []platform.Project
	for _, leader := range leaders {
		var ok bool
		for _, t := range g.partitionReadTargets(leader) {
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
				t.node.cfg.url+"/api/projects", nil)
			if err != nil {
				continue
			}
			req.Header.Set(obs.HeaderTrace, obs.TraceID(r))
			resp, err := g.hc.Do(req)
			if err != nil {
				g.bookFailure(t.node)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				continue
			}
			var part []platform.Project
			err = json.NewDecoder(resp.Body).Decode(&part)
			resp.Body.Close()
			if err != nil {
				continue
			}
			merged = append(merged, part...)
			t.node.reads.Add(1)
			g.m.requests.With("list_projects", t.node.cfg.name).Inc()
			ok = true
			break
		}
		if !ok {
			writeGateErr(w, http.StatusBadGateway, "partial",
				fmt.Sprintf("gate: partition %q did not answer; refusing to return a partial project list", leader))
			return
		}
	}
	// Ids are globally unique across partitions (ring-owned allocation),
	// so id order is a total order for the merged view.
	sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(merged)
}

// handleNodeStats serves GET /api/stats as the deployment-wide view: the
// gateway's own status plus every node's platform stats, keyed by node
// name.
func (g *Gateway) handleNodeStats(w http.ResponseWriter, r *http.Request) {
	g.stats.Fanouts.Add(1)
	g.mu.RLock()
	names := append([]string(nil), g.order...)
	urls := make(map[string]string, len(names))
	for _, name := range names {
		urls[name] = g.nodes[name].cfg.url
	}
	g.mu.RUnlock()
	// Concurrent, on the short-timeout probe client: a blackholed node
	// must cost one probe timeout, not a 30s forward timeout per node.
	type nodeStats struct {
		name string
		raw  json.RawMessage
	}
	results := make(chan nodeStats, len(names))
	for _, name := range names {
		go func(name, url string) {
			out := nodeStats{name: name}
			defer func() { results <- out }()
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url+"/api/stats", nil)
			if err != nil {
				return
			}
			req.Header.Set(obs.HeaderTrace, obs.TraceID(r))
			resp, err := g.probeHC.Do(req)
			if err != nil {
				return
			}
			raw, err := io.ReadAll(io.LimitReader(resp.Body, DefaultMaxBodyBytes))
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(raw) {
				return
			}
			out.raw = raw
		}(name, urls[name])
	}
	nodes := make(map[string]json.RawMessage, len(names))
	for range names {
		st := <-results
		if st.raw != nil {
			nodes[st.name] = st.raw
		} else {
			// An unanswered node stays visible under an explicit marker — a
			// silently missing key would make a partial view read as the
			// whole deployment.
			nodes[st.name] = json.RawMessage(`{"error":"no_answer"}`)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Gateway Status                     `json:"gateway"`
		Nodes   map[string]json.RawMessage `json:"nodes"`
	}{g.Snapshot(), nodes})
}

// --- gateway-local endpoints ---

func (g *Gateway) handleHealthz(w http.ResponseWriter) {
	st := g.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	if !st.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(st)
}

func (g *Gateway) handleGate(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/api/gate/stats" && r.Method == http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(g.Snapshot())
	case r.URL.Path == "/api/gate/topology" && r.Method == http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(g.Topology())
	case r.URL.Path == "/api/gate/topology" && r.Method == http.MethodPost:
		var t Topology
		if err := json.NewDecoder(io.LimitReader(r.Body, DefaultMaxBodyBytes)).Decode(&t); err != nil {
			writeGateErr(w, http.StatusBadRequest, "bad_request", "gate: decode topology: "+err.Error())
			return
		}
		if err := g.SetTopology(t); err != nil {
			writeGateErr(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(g.Snapshot())
	default:
		writeGateErr(w, http.StatusNotFound, "unknown_route", "gate: no such admin route")
	}
}
