// Package platform implements the crowdsourcing platform Reprowd publishes
// tasks to.
//
// The original system bound to PyBossa, an external web service. This
// package provides the same task lifecycle — projects, tasks with
// redundancy-N assignment, task runs (answers) — as an embeddable Engine,
// plus a net/http JSON REST Server and a matching HTTPClient so the
// binding can also be exercised over a real wire (and, in the client's
// gateway mode, through the internal/gate router). Everything above this
// package talks to the Client interface and cannot tell the difference.
// Durability lives here too: the Journal write-ahead-logs every mutation
// onto internal/storage with group commit, and the Checkpointer folds the
// committed prefix into snapshot records so recovery replays only a tail.
//
// Concurrency model: the Engine guards its registry with one RWMutex
// taken shared on the read path, delegates assignment to internal/sched's
// striped locks, and never holds the registry lock across a disk flush —
// journaled mutations stage under the lock, flush outside it, and
// finalize whole acked groups in one hold (see Engine's doc comment).
// The Journal serializes durability through a single committer goroutine;
// the Checkpointer materializes state on its own goroutine off the
// journal's committed-event tap. Engine, Journal, Server and HTTPClient
// are all safe for concurrent use.
package platform

import (
	"errors"
	"fmt"
	"time"
)

// TaskState describes a task's lifecycle position.
type TaskState string

const (
	// TaskOngoing means the task still needs answers.
	TaskOngoing TaskState = "ongoing"
	// TaskCompleted means the task has collected its full redundancy of
	// answers.
	TaskCompleted TaskState = "completed"
)

// Strategy selects how the scheduler orders candidate tasks for a worker.
type Strategy string

const (
	// BreadthFirst hands out the task with the fewest answers so far, so
	// all tasks progress together. This is PyBossa's default.
	BreadthFirst Strategy = "breadth"
	// DepthFirst hands out the task closest to completion, finishing
	// tasks one by one.
	DepthFirst Strategy = "depth"
)

// ProjectSpec describes a project to create.
type ProjectSpec struct {
	// Name uniquely identifies the project on the platform.
	Name string `json:"name"`
	// Presenter names the task-presenter template workers see (the "web
	// user interface" chosen in step 2 of the paper's example).
	Presenter string `json:"presenter"`
	// Redundancy is the default number of distinct workers that must
	// answer each task.
	Redundancy int `json:"redundancy"`
	// Strategy is the scheduling strategy; empty means BreadthFirst.
	Strategy Strategy `json:"strategy,omitempty"`
}

// Project is a registered project.
type Project struct {
	ID         int64     `json:"id"`
	Name       string    `json:"name"`
	Presenter  string    `json:"presenter"`
	Redundancy int       `json:"redundancy"`
	Strategy   Strategy  `json:"strategy"`
	Created    time.Time `json:"created"`
}

// TaskSpec describes a task to publish.
type TaskSpec struct {
	// ExternalID is the caller's idempotency key: re-adding a spec with
	// an ExternalID already present in the project returns the existing
	// task instead of creating a duplicate. Reprowd uses the CrowdData
	// row key here, which is what makes Publish safe to rerun after a
	// crash.
	ExternalID string `json:"external_id"`
	// Payload is the task's data, e.g. {"url_b": "http://.../img1.jpg"}.
	Payload map[string]string `json:"payload"`
	// Redundancy overrides the project default when > 0.
	Redundancy int `json:"redundancy,omitempty"`
	// Priority breaks scheduling ties; higher is sooner.
	Priority float64 `json:"priority,omitempty"`
}

// Task is a published task.
type Task struct {
	ID         int64             `json:"id"`
	ProjectID  int64             `json:"project_id"`
	ExternalID string            `json:"external_id"`
	Payload    map[string]string `json:"payload"`
	Redundancy int               `json:"redundancy"`
	Priority   float64           `json:"priority"`
	State      TaskState         `json:"state"`
	NumAnswers int               `json:"num_answers"`
	Created    time.Time         `json:"created"`
	Completed  time.Time         `json:"completed,omitempty"`
}

// TaskRun is one worker's answer to a task.
type TaskRun struct {
	ID        int64     `json:"id"`
	TaskID    int64     `json:"task_id"`
	ProjectID int64     `json:"project_id"`
	WorkerID  string    `json:"worker_id"`
	Answer    string    `json:"answer"`
	Assigned  time.Time `json:"assigned"`
	Finished  time.Time `json:"finished"`
}

// ProjectStats summarizes a project's progress.
type ProjectStats struct {
	ProjectID      int64 `json:"project_id"`
	Tasks          int   `json:"tasks"`
	CompletedTasks int   `json:"completed_tasks"`
	TaskRuns       int   `json:"task_runs"`
	Workers        int   `json:"workers"`
}

// Errors returned by the platform.
var (
	ErrUnknownProject  = errors.New("platform: unknown project")
	ErrUnknownTask     = errors.New("platform: unknown task")
	ErrNoTask          = errors.New("platform: no task available for this worker")
	ErrDuplicateAnswer = errors.New("platform: worker already answered this task")
	ErrTaskCompleted   = errors.New("platform: task already has its full redundancy of answers")
	ErrWorkerBanned    = errors.New("platform: worker is banned from this project")
	ErrBadRequest      = errors.New("platform: bad request")
	// ErrReadOnly is returned by mutating calls against a read replica.
	// The HTTP layer turns it into a redirect to the leader when the
	// replica knows one.
	ErrReadOnly = errors.New("platform: engine is read-only (follower); write to the leader")
	// ErrNoTaskLeft is the ErrNoTask that waiting cannot cure: the worker
	// has answered every open task of the project (or none is open). A
	// plain ErrNoTask means another worker's lease blocks the only
	// candidates, so a retry after it expires may succeed.
	// errors.Is(ErrNoTaskLeft, ErrNoTask) holds, so classifiers that only
	// know ErrNoTask keep working.
	ErrNoTaskLeft = fmt.Errorf("%w: none left to answer", ErrNoTask)
)

// Client is the platform binding used by everything above this package.
// Both the in-process engine and the HTTP client implement it.
type Client interface {
	// EnsureProject returns the project named spec.Name, creating it if
	// needed. An existing project keeps its original settings.
	EnsureProject(spec ProjectSpec) (Project, error)
	// FindProject looks a project up by name.
	FindProject(name string) (Project, bool, error)
	// AddTasks publishes tasks, deduplicating on ExternalID. It returns
	// one Task per spec, in order (existing tasks for duplicates).
	AddTasks(projectID int64, specs []TaskSpec) ([]Task, error)
	// RequestTask asks the scheduler for the next task this worker
	// should do. It returns ErrNoTaskLeft when the worker has nothing left
	// to answer, and plain ErrNoTask when other workers' leases block the
	// only candidates (retrying after they expire may succeed).
	RequestTask(projectID int64, workerID string) (Task, error)
	// Submit records a worker's answer for a task.
	Submit(taskID int64, workerID, answer string) (TaskRun, error)
	// Tasks lists all tasks in a project, ordered by id.
	Tasks(projectID int64) ([]Task, error)
	// Runs lists all answers for a task, ordered by id.
	Runs(taskID int64) ([]TaskRun, error)
	// Stats summarizes a project.
	Stats(projectID int64) (ProjectStats, error)
	// BanWorker blocks a worker from requesting or answering tasks in a
	// project — the enforcement half of gold-based quality control.
	BanWorker(projectID int64, workerID string) error
}
