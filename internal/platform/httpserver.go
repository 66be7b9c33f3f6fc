package platform

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
)

// HeaderShardKey is the routing-hint header pair the platform speaks with
// internal/gate's ring-routed gateway:
//
//   - The server sets it on every response whose request resolved a
//     project: the value is ShardKey(projectID), decimal. Task-scoped
//     responses (Submit, Runs, preview) carry their task's project key.
//   - A gateway-mode HTTPClient replays the value on later requests for
//     the same project or task, so a gateway can route the request with a
//     single ring lookup — no path parsing, no body peeking ("blind"
//     routing).
const HeaderShardKey = "X-Reprowd-Shard-Key"

// HeaderFrontier is the journal-frontier tag on project-scoped responses:
// the next journal sequence this node's state reflects (ReplStats
// AppliedSeq) at response time. A read tagged N is the answer the engine
// gives while exactly N events have been applied — so a cache holding it
// may keep serving it until some node of the partition reports a frontier
// past N. internal/gate's frontier read cache is the consumer; the header
// is omitted by unjournaled (in-memory) engines, which have no frontier
// to tag with, and such responses are never cached.
const HeaderFrontier = "X-Reprowd-Frontier"

// HeaderNoTask carries the wire code of a 204 from newtask ("no_task" or
// "no_task_left"), since a 204 has no body for the JSON error. A bare 204
// — an older node — decodes as plain ErrNoTask.
const HeaderNoTask = "X-Reprowd-No-Task"

// ShardKey is the canonical routing hash over a platform id — the same
// Fibonacci multiplicative hash internal/sched stripes projects across
// shard locks with, reused by repl.Ring to partition projects across
// leaders. Defined here (the lowest layer repl and gate both import) so
// every component derives the identical key space.
func ShardKey(id int64) uint64 {
	return uint64(id) * 0x9E3779B97F4A7C15
}

// Server exposes an Engine over a JSON REST API shaped like PyBossa's task
// endpoints. Routes:
//
//	PUT  /api/projects                → EnsureProject
//	GET  /api/projects                → list projects
//	GET  /api/projects/find?name=N    → FindProject
//	POST /api/projects/{id}/tasks     → AddTasks (bulk)
//	GET  /api/projects/{id}/tasks     → Tasks
//	POST /api/projects/{id}/newtask   → RequestTask   (?worker=W; 204 when
//	                                    nothing is assignable, with
//	                                    HeaderNoTask "no_task_left" when
//	                                    waiting cannot help)
//	GET  /api/projects/{id}/stats     → Stats
//	GET  /api/projects/{id}/queue     → QueueStats (scheduler queue depth/leases)
//	GET  /api/stats                   → PlatformStats (journal + storage counters)
//	GET  /api/healthz                 → readiness (role, catch-up state, lag)
//	POST /api/tasks/{id}/runs         → Submit        (body: worker, answer)
//	GET  /api/tasks/{id}/runs         → Runs
//
// Additional subsystems (the replication endpoints under /api/repl/) are
// mounted with Handle.
type Server struct {
	engine *Engine
	mux    *http.ServeMux
}

// NewServer wraps engine in an HTTP handler.
func NewServer(engine *Engine) *Server {
	s := &Server{engine: engine, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /api/healthz", s.handleHealthz)
	s.mux.HandleFunc("PUT /api/projects", s.handleEnsureProject)
	s.mux.HandleFunc("GET /api/projects", s.handleListProjects)
	s.mux.HandleFunc("GET /api/projects/find", s.handleFindProject)
	s.mux.HandleFunc("POST /api/projects/{id}/tasks", s.handleAddTasks)
	s.mux.HandleFunc("GET /api/projects/{id}/tasks", s.handleTasks)
	s.mux.HandleFunc("POST /api/projects/{id}/newtask", s.handleNewTask)
	s.mux.HandleFunc("GET /api/projects/{id}/stats", s.handleStats)
	s.mux.HandleFunc("GET /api/projects/{id}/queue", s.handleQueueStats)
	s.mux.HandleFunc("GET /api/stats", s.handlePlatformStats)
	s.mux.HandleFunc("POST /api/tasks/{id}/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/tasks/{id}/runs", s.handleRuns)
	s.mux.HandleFunc("POST /api/projects/{id}/ban", s.handleBan)
	s.mux.HandleFunc("GET /tasks/{id}/preview", s.handlePreview)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Handle mounts an additional handler on the server's mux (the
// replication endpoints live in internal/repl and are attached here, so
// the platform package never has to import them).
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// handleHealthz is the load-balancer readiness probe: 200 with the
// replication view when the node can serve its role, 503 while a follower
// is still bootstrapping or has lost its stream (the body says which).
// Leaders and standalone nodes are ready by construction — they only
// listen after recovery completes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.engine.ReplStats()
	w.Header().Set("Content-Type", "application/json")
	if !st.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(st)
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// errorCode maps platform errors onto stable wire codes so the HTTP client
// can translate them back into the same sentinel errors.
func errorCode(err error) (string, int) {
	switch {
	case errors.Is(err, ErrUnknownProject):
		return "unknown_project", http.StatusNotFound
	case errors.Is(err, ErrUnknownTask):
		return "unknown_task", http.StatusNotFound
	case errors.Is(err, ErrNoTaskLeft):
		return "no_task_left", http.StatusNoContent
	case errors.Is(err, ErrNoTask):
		return "no_task", http.StatusNoContent
	case errors.Is(err, ErrDuplicateAnswer):
		return "duplicate_answer", http.StatusConflict
	case errors.Is(err, ErrTaskCompleted):
		return "task_completed", http.StatusConflict
	case errors.Is(err, ErrWorkerBanned):
		return "worker_banned", http.StatusForbidden
	case errors.Is(err, ErrReadOnly):
		return "read_only", http.StatusServiceUnavailable
	case errors.Is(err, ErrStaleEpoch):
		return "stale_epoch", http.StatusConflict
	case errors.Is(err, ErrFenced):
		return "fenced", http.StatusServiceUnavailable
	case errors.Is(err, ErrBadRequest):
		return "bad_request", http.StatusBadRequest
	default:
		return "internal", http.StatusInternalServerError
	}
}

// codeToError is the inverse of errorCode, used by the HTTP client.
func codeToError(code, msg string) error {
	switch code {
	case "unknown_project":
		return ErrUnknownProject
	case "unknown_task":
		return ErrUnknownTask
	case "no_task_left":
		return ErrNoTaskLeft
	case "no_task":
		return ErrNoTask
	case "duplicate_answer":
		return ErrDuplicateAnswer
	case "task_completed":
		return ErrTaskCompleted
	case "worker_banned":
		return ErrWorkerBanned
	case "bad_request":
		return ErrBadRequest
	case "read_only":
		return ErrReadOnly
	case "stale_epoch":
		return ErrStaleEpoch
	case "fenced":
		return ErrFenced
	default:
		return errors.New("platform: remote error: " + msg)
	}
}

// writeErr writes err as the JSON error body. A write rejected by a read
// replica that knows its leader becomes a 307 redirect there instead —
// the client (Go's http.Client included) replays the request, method and
// body intact, against the leader.
func (s *Server) writeErr(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, ErrReadOnly) {
		if _, leader := s.engine.ReadOnly(); leader != "" {
			target := strings.TrimRight(leader, "/") + r.URL.Path
			if r.URL.RawQuery != "" {
				target += "?" + r.URL.RawQuery
			}
			http.Redirect(w, r, target, http.StatusTemporaryRedirect)
			return
		}
	}
	code, status := errorCode(err)
	if status == http.StatusNoContent {
		w.Header().Set(HeaderNoTask, code)
		w.WriteHeader(status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: err.Error(), Code: code})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// echoShard stamps the response with the project's routing key (see
// HeaderShardKey) and the engine's journal frontier (see HeaderFrontier).
// Must run before the body is written.
func (s *Server) echoShard(w http.ResponseWriter, projectID int64) {
	w.Header().Set(HeaderShardKey, strconv.FormatUint(ShardKey(projectID), 10))
	if seq := s.engine.ReplStats().AppliedSeq; seq > 0 {
		w.Header().Set(HeaderFrontier, strconv.FormatUint(seq, 10))
	}
}

func pathID(r *http.Request) (int64, error) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		return 0, ErrBadRequest
	}
	return id, nil
}

// checkEpoch runs the fencing gate on a write request: the HeaderEpoch
// stamp (zero when absent) goes through the engine's epoch guard before
// the handler touches any state. Rejections surface as stale_epoch (409)
// or fenced (503) — both signals to the router that its leader view is
// out of date.
func (s *Server) checkEpoch(r *http.Request) error {
	tok, err := ParseEpochToken(r.Header.Get(HeaderEpoch))
	if err != nil {
		return ErrBadRequest
	}
	return s.engine.CheckEpoch(tok)
}

func (s *Server) handleEnsureProject(w http.ResponseWriter, r *http.Request) {
	if err := s.checkEpoch(r); err != nil {
		s.writeErr(w, r, err)
		return
	}
	var spec ProjectSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		s.writeErr(w, r, ErrBadRequest)
		return
	}
	p, err := s.engine.EnsureProject(spec)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	s.echoShard(w, p.ID)
	writeJSON(w, p)
}

func (s *Server) handleListProjects(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.engine.Projects())
}

func (s *Server) handleFindProject(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	p, ok, err := s.engine.FindProject(name)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if !ok {
		s.writeErr(w, r, ErrUnknownProject)
		return
	}
	s.echoShard(w, p.ID)
	writeJSON(w, p)
}

func (s *Server) handleAddTasks(w http.ResponseWriter, r *http.Request) {
	if err := s.checkEpoch(r); err != nil {
		s.writeErr(w, r, err)
		return
	}
	id, err := pathID(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	var specs []TaskSpec
	if err := json.NewDecoder(r.Body).Decode(&specs); err != nil {
		s.writeErr(w, r, ErrBadRequest)
		return
	}
	tasks, err := s.engine.AddTasks(id, specs)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	s.echoShard(w, id)
	writeJSON(w, tasks)
}

func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	tasks, err := s.engine.Tasks(id)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	s.echoShard(w, id)
	writeJSON(w, tasks)
}

func (s *Server) handleNewTask(w http.ResponseWriter, r *http.Request) {
	if err := s.checkEpoch(r); err != nil {
		s.writeErr(w, r, err)
		return
	}
	id, err := pathID(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	task, err := s.engine.RequestTask(id, r.URL.Query().Get("worker"))
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	s.echoShard(w, id)
	writeJSON(w, task)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	st, err := s.engine.Stats(id)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	s.echoShard(w, id)
	writeJSON(w, st)
}

// handleQueueStats surfaces the sched subsystem's per-project view —
// open queue depth and outstanding leases — for operators and tests.
func (s *Server) handleQueueStats(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	st, err := s.engine.QueueStats(id)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	s.echoShard(w, id)
	writeJSON(w, st)
}

// handlePlatformStats surfaces the journal's group-commit counters and
// the storage engine's counters — the operator's window into fsync
// amortization (FlushedEvents/Flushes vs storage Syncs).
func (s *Server) handlePlatformStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.engine.PlatformStats())
}

type submitRequest struct {
	WorkerID string `json:"worker_id"`
	Answer   string `json:"answer"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if err := s.checkEpoch(r); err != nil {
		s.writeErr(w, r, err)
		return
	}
	id, err := pathID(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, r, ErrBadRequest)
		return
	}
	run, err := s.engine.Submit(id, req.WorkerID, req.Answer)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	s.echoShard(w, run.ProjectID)
	writeJSON(w, run)
}

type banRequest struct {
	WorkerID string `json:"worker_id"`
}

func (s *Server) handleBan(w http.ResponseWriter, r *http.Request) {
	if err := s.checkEpoch(r); err != nil {
		s.writeErr(w, r, err)
		return
	}
	id, err := pathID(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	var req banRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, r, ErrBadRequest)
		return
	}
	if err := s.engine.BanWorker(id, req.WorkerID); err != nil {
		s.writeErr(w, r, err)
		return
	}
	s.echoShard(w, id)
	writeJSON(w, map[string]bool{"banned": true})
}

// handlePreview renders a task's payload as the HTML page a browser-based
// worker would see — the generic fallback UI a PyBossa-like platform serves
// when the project ships no custom presenter.
func (s *Server) handlePreview(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	task, project, err := s.engine.taskWithProject(id)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	s.echoShard(w, project.ID)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := previewTemplate.Execute(w, struct {
		Task    Task
		Project Project
		Fields  []payloadField
	}{task, project, sortedPayload(task.Payload)}); err != nil {
		// Headers already sent; nothing more to do.
		return
	}
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	runs, err := s.engine.Runs(id)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if t, ok := s.engine.taskProject(id); ok {
		s.echoShard(w, t)
	}
	writeJSON(w, runs)
}
