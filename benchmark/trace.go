package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
)

// Everything in this file observes the program from outside: a wrapper
// around platform.Client (always on — it is where client-side latency is
// defined), and, only in a traced run, an http.RoundTripper that stamps
// trace ids and http.Handler wrappers around the gateway and the nodes.
// Nothing under internal/ is edited or re-registered.

// op names one platform.Client method; the order is the report order.
type op int

const (
	opAddTasks op = iota
	opRequestTask
	opSubmit
	opTasks
	opRuns
	opStats
	opOther // EnsureProject, FindProject, BanWorker: counted, not reported per op
	numOps
)

var opNames = [numOps]string{"add_tasks", "request_task", "submit", "tasks", "runs", "stats", "other"}

// recorder collects one phase's client-side observations. It is shared by
// every client of the phase, so it locks; the critical section is an
// append.
type recorder struct {
	mu        sync.Mutex
	lat       [numOps][]float64 // seconds, successful calls only
	calls     [numOps]int       // every attempt, whatever the outcome
	busy      [numOps]float64   // seconds inside calls, whatever the outcome
	noTask    int               // RequestTask → ErrNoTask
	completed int               // Submit → ErrTaskCompleted
	duplicate int               // Submit → ErrDuplicateAnswer
	failed    int               // any other error
	firstErr  error
	// The window each op kind was in flight, for publish_s / collect_tail_s.
	first, last [numOps]time.Time
}

// expected reports the protocol outcomes that are answers, not failures.
func expected(err error) bool {
	return errors.Is(err, platform.ErrNoTask) ||
		errors.Is(err, platform.ErrTaskCompleted) ||
		errors.Is(err, platform.ErrDuplicateAnswer)
}

func (r *recorder) observe(o op, start, end time.Time, err error) {
	r.mu.Lock()
	r.calls[o]++
	r.busy[o] += end.Sub(start).Seconds()
	if r.first[o].IsZero() {
		r.first[o] = start
	}
	if end.After(r.last[o]) {
		r.last[o] = end
	}
	switch {
	case err == nil:
		r.lat[o] = append(r.lat[o], end.Sub(start).Seconds())
	case errors.Is(err, platform.ErrNoTask):
		r.noTask++
	case errors.Is(err, platform.ErrTaskCompleted):
		r.completed++
	case errors.Is(err, platform.ErrDuplicateAnswer):
		r.duplicate++
	default:
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	r.mu.Unlock()
}

// merge folds other into r (phases made of several rounds keep one
// recorder per round and merge at the end).
func (r *recorder) merge(other *recorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for o := op(0); o < numOps; o++ {
		r.lat[o] = append(r.lat[o], other.lat[o]...)
		r.calls[o] += other.calls[o]
		r.busy[o] += other.busy[o]
		if r.first[o].IsZero() || (!other.first[o].IsZero() && other.first[o].Before(r.first[o])) {
			r.first[o] = other.first[o]
		}
		if other.last[o].After(r.last[o]) {
			r.last[o] = other.last[o]
		}
	}
	r.noTask += other.noTask
	r.completed += other.completed
	r.duplicate += other.duplicate
	r.failed += other.failed
	if r.firstErr == nil {
		r.firstErr = other.firstErr
	}
}

func (r *recorder) attempts() int {
	n := 0
	for _, c := range r.calls {
		n += c
	}
	return n
}

// span is one timed interval at a layer boundary. Parent is filled in
// when the trace is written: spans of one request share Trace, and their
// nesting is fixed (client → gate → node), so it does not have to travel
// on the wire.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Layer ranks order the spans of one trace from cause to effect.
const (
	rankClient = iota
	rankGate
	rankNode
)

func spanRank(name string) int {
	switch {
	case strings.HasPrefix(name, "gate."):
		return rankGate
	case strings.HasPrefix(name, "platform."):
		return rankNode
	}
	return rankClient
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced configuration: every method is a no-op.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
	// Bytes of response bodies by client-side route, for distops.poll_bytes.
	bytes [numOps]atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newTraceID() string {
	return "b" + strconv.FormatUint(t.ids.Add(1), 36)
}

func (t *tracer) add(name, trace string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: t.ids.Add(1), Trace: trace, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// mark returns how many spans exist now, so a phase can later ask for
// just its own.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since summarizes the spans recorded after mark.
func (t *tracer) since(mark int) layerTimes {
	if t == nil {
		return layerTimes{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return summarizeSpans(t.spans[mark:])
}

// link assigns parents — within a trace, each span's parent is the
// nearest span of the next layer out — and writes the trace file.
func (t *tracer) flush(path string) (int, error) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	byTrace := map[string][]int{}
	for i, s := range spans {
		if s.Trace != "" {
			byTrace[s.Trace] = append(byTrace[s.Trace], i)
		}
	}
	for _, idx := range byTrace {
		for _, i := range idx {
			want := spanRank(spans[i].Name) - 1
			for want >= rankClient && spans[i].Parent == 0 {
				for _, j := range idx {
					if spanRank(spans[j].Name) == want &&
						spans[j].Start <= spans[i].Start && spans[j].End >= spans[i].End {
						spans[i].Parent = spans[j].ID
						break
					}
				}
				want-- // direct workloads have no gate layer
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return 0, err
	}
	return len(spans), f.Close()
}

// handoff passes a trace id from the client wrapper to the transport
// beneath platform.HTTPClient, which offers no per-call hook. The wrapper
// takes the slot, posts the id and calls in; the transport's RoundTrip —
// on the same goroutine, a few microseconds later — collects the id and
// frees the slot. Concurrent callers of one client therefore serialize
// only across request marshalling, not across the network round trip.
type handoff struct {
	slot    chan struct{} // capacity 1: the right to post
	pending atomic.Pointer[string]
}

func newHandoff() *handoff { return &handoff{slot: make(chan struct{}, 1)} }

func (h *handoff) post(id *string) {
	h.slot <- struct{}{}
	h.pending.Store(id)
}

// take returns the posted id, or "" when the request is a retry (or a
// call nobody posted for).
func (h *handoff) take() string {
	id := h.pending.Swap(nil)
	if id == nil {
		return ""
	}
	<-h.slot
	return *id
}

// withdraw frees the slot when the call returned without ever reaching
// the transport (an error before the request was sent).
func (h *handoff) withdraw(id *string) {
	if h.pending.CompareAndSwap(id, nil) {
		<-h.slot
	}
}

// traceTransport stamps each outgoing request with the trace id the
// client wrapper posted and counts response bytes by route.
type traceTransport struct {
	next http.RoundTripper
	hand *handoff
	tr   *tracer
}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.hand.take()
	if id == "" {
		id = t.tr.newTraceID()
	}
	req.Header.Set(obs.HeaderTrace, id)
	resp, err := t.next.RoundTrip(req)
	if err == nil && resp.Body != nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.tr.bytes[routeOp(req.Method, req.URL.Path)]}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// routeOp maps a REST route back to the client method that issues it.
func routeOp(method, path string) op {
	switch {
	case strings.HasSuffix(path, "/newtask"):
		return opRequestTask
	case strings.HasSuffix(path, "/runs") && method == http.MethodPost:
		return opSubmit
	case strings.HasSuffix(path, "/runs"):
		return opRuns
	case strings.HasSuffix(path, "/tasks") && method == http.MethodPost:
		return opAddTasks
	case strings.HasSuffix(path, "/tasks"):
		return opTasks
	case strings.HasSuffix(path, "/stats") && strings.HasPrefix(path, "/api/projects/"):
		return opStats
	}
	return opOther
}

// meteredClient is the platform.Client wrapper: it times every call into
// rec and, in a traced run, records the call as the root span of its
// trace.
type meteredClient struct {
	inner platform.Client
	rec   *recorder
	tr    *tracer  // nil when untraced
	hand  *handoff // nil when untraced
	owner string   // span name prefix: "client" for the requester, "crowd" for workers
	// onTasks, when set, is told of every Tasks call before it is made:
	// the collector's poll rounds are counted here.
	onTasks func(projectID int64)
}

var _ platform.Client = (*meteredClient)(nil)

func (c *meteredClient) begin() (time.Time, *string) {
	if c.tr == nil {
		return time.Now(), nil
	}
	id := c.tr.newTraceID()
	c.hand.post(&id)
	return time.Now(), &id
}

func (c *meteredClient) end(o op, start time.Time, id *string, err error) {
	end := time.Now()
	c.rec.observe(o, start, end, err)
	if id != nil {
		c.hand.withdraw(id)
		c.tr.add(c.owner+"."+opNames[o], *id, start, end)
	}
}

func (c *meteredClient) EnsureProject(spec platform.ProjectSpec) (platform.Project, error) {
	start, id := c.begin()
	p, err := c.inner.EnsureProject(spec)
	c.end(opOther, start, id, err)
	return p, err
}

func (c *meteredClient) FindProject(name string) (platform.Project, bool, error) {
	start, id := c.begin()
	p, ok, err := c.inner.FindProject(name)
	c.end(opOther, start, id, err)
	return p, ok, err
}

func (c *meteredClient) AddTasks(projectID int64, specs []platform.TaskSpec) ([]platform.Task, error) {
	start, id := c.begin()
	ts, err := c.inner.AddTasks(projectID, specs)
	c.end(opAddTasks, start, id, err)
	return ts, err
}

func (c *meteredClient) RequestTask(projectID int64, workerID string) (platform.Task, error) {
	start, id := c.begin()
	t, err := c.inner.RequestTask(projectID, workerID)
	c.end(opRequestTask, start, id, err)
	return t, err
}

func (c *meteredClient) Submit(taskID int64, workerID, answer string) (platform.TaskRun, error) {
	start, id := c.begin()
	r, err := c.inner.Submit(taskID, workerID, answer)
	c.end(opSubmit, start, id, err)
	return r, err
}

func (c *meteredClient) Tasks(projectID int64) ([]platform.Task, error) {
	if c.onTasks != nil {
		c.onTasks(projectID)
	}
	start, id := c.begin()
	ts, err := c.inner.Tasks(projectID)
	c.end(opTasks, start, id, err)
	return ts, err
}

func (c *meteredClient) Runs(taskID int64) ([]platform.TaskRun, error) {
	start, id := c.begin()
	rs, err := c.inner.Runs(taskID)
	c.end(opRuns, start, id, err)
	return rs, err
}

func (c *meteredClient) Stats(projectID int64) (platform.ProjectStats, error) {
	start, id := c.begin()
	st, err := c.inner.Stats(projectID)
	c.end(opStats, start, id, err)
	return st, err
}

func (c *meteredClient) BanWorker(projectID int64, workerID string) error {
	start, id := c.begin()
	err := c.inner.BanWorker(projectID, workerID)
	c.end(opOther, start, id, err)
	return err
}

// spanHandler wraps the gateway's or a node's http.Handler: one span per
// API request, named after the layer, carrying the request's trace id.
// Replication streams and health probes are background traffic, not part
// of any request's budget; they pass through unrecorded.
type spanHandler struct {
	next   http.Handler
	name   string // "gate.serve", "platform.serve" or "platform.serve_follower"
	tr     *tracer
	errors *atomic.Int64 // 5xx replies
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/api/repl/") || r.URL.Path == "/api/healthz" {
		h.next.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(sw, r)
	end := time.Now()
	if sw.status >= 500 {
		h.errors.Add(1)
	}
	h.tr.add(h.name+"."+opNames[routeOp(r.Method, r.URL.Path)], obs.TraceID(r), start, end)
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush keeps long-lived responses streaming through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// layerTimes sums span durations by layer and computes the gateway's self
// time: each gate span minus the node spans that share its trace id.
type layerTimes struct {
	gateServe, gateSelf      float64
	nodeServe, followerServe float64
	gateRequests             int
	gateSubmit, nodeSubmit   []float64 // per-request seconds on the submit route
	gateSubmitSelf           []float64
}

func summarizeSpans(spans []span) layerTimes {
	var lt layerTimes
	nodeByTrace := map[string]float64{}
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e9
		switch {
		case strings.HasPrefix(s.Name, "platform.serve_follower."):
			lt.followerServe += d
			nodeByTrace[s.Trace] += d
		case strings.HasPrefix(s.Name, "platform.serve."):
			lt.nodeServe += d
			nodeByTrace[s.Trace] += d
			if strings.HasSuffix(s.Name, ".submit") {
				lt.nodeSubmit = append(lt.nodeSubmit, d)
			}
		}
	}
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "gate.serve.") {
			continue
		}
		d := float64(s.End-s.Start) / 1e9
		self := d - nodeByTrace[s.Trace]
		if self < 0 {
			self = 0
		}
		lt.gateServe += d
		lt.gateSelf += self
		lt.gateRequests++
		if strings.HasSuffix(s.Name, ".submit") {
			lt.gateSubmit = append(lt.gateSubmit, d)
			lt.gateSubmitSelf = append(lt.gateSubmitSelf, self)
		}
	}
	return lt
}

// quantile returns the q-quantile of xs by nearest rank; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
