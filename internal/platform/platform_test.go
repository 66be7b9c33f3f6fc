package platform

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/vclock"
)

// newClients returns both bindings backed by fresh engines, so every
// conformance test runs against the in-process engine and the HTTP wire.
func newClients(t *testing.T) map[string]Client {
	t.Helper()
	engine := NewEngine(vclock.NewVirtual())

	httpEngine := NewEngine(vclock.NewVirtual())
	srv := httptest.NewServer(NewServer(httpEngine))
	t.Cleanup(srv.Close)

	return map[string]Client{
		"inprocess": engine,
		"http":      NewHTTPClient(srv.URL, srv.Client()),
	}
}

func forEachClient(t *testing.T, fn func(t *testing.T, c Client)) {
	for name, c := range newClients(t) {
		t.Run(name, func(t *testing.T) { fn(t, c) })
	}
}

func TestEnsureProjectIdempotent(t *testing.T) {
	forEachClient(t, func(t *testing.T, c Client) {
		p1, err := c.EnsureProject(ProjectSpec{Name: "label", Presenter: "image", Redundancy: 3})
		if err != nil {
			t.Fatal(err)
		}
		if p1.ID == 0 || p1.Redundancy != 3 || p1.Strategy != BreadthFirst {
			t.Fatalf("bad project: %+v", p1)
		}
		p2, err := c.EnsureProject(ProjectSpec{Name: "label", Presenter: "other", Redundancy: 5})
		if err != nil {
			t.Fatal(err)
		}
		if p2.ID != p1.ID || p2.Presenter != "image" || p2.Redundancy != 3 {
			t.Fatalf("EnsureProject overwrote existing project: %+v", p2)
		}
		got, ok, err := c.FindProject("label")
		if err != nil || !ok || got.ID != p1.ID {
			t.Fatalf("FindProject = %+v, %v, %v", got, ok, err)
		}
		_, ok, err = c.FindProject("nope")
		if err != nil || ok {
			t.Fatalf("FindProject(nope) = %v, %v; want absent", ok, err)
		}
	})
}

func TestEnsureProjectValidation(t *testing.T) {
	forEachClient(t, func(t *testing.T, c Client) {
		if _, err := c.EnsureProject(ProjectSpec{}); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("empty name: got %v, want ErrBadRequest", err)
		}
	})
}

func TestAddTasksIdempotentByExternalID(t *testing.T) {
	forEachClient(t, func(t *testing.T, c Client) {
		p, _ := c.EnsureProject(ProjectSpec{Name: "p", Redundancy: 2})
		specs := []TaskSpec{
			{ExternalID: "row-1", Payload: map[string]string{"url": "a.jpg"}},
			{ExternalID: "row-2", Payload: map[string]string{"url": "b.jpg"}},
		}
		first, err := c.AddTasks(p.ID, specs)
		if err != nil || len(first) != 2 {
			t.Fatalf("AddTasks: %v %v", first, err)
		}
		// Republishing (e.g. after a crash) must return the same tasks.
		second, err := c.AddTasks(p.ID, specs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if second[i].ID != first[i].ID {
				t.Fatalf("duplicate task created: %v vs %v", second[i], first[i])
			}
		}
		tasks, _ := c.Tasks(p.ID)
		if len(tasks) != 2 {
			t.Fatalf("project has %d tasks, want 2", len(tasks))
		}
		// Tasks without ExternalID are never deduplicated.
		anon := []TaskSpec{{Payload: map[string]string{"url": "c.jpg"}}}
		c.AddTasks(p.ID, anon)
		c.AddTasks(p.ID, anon)
		tasks, _ = c.Tasks(p.ID)
		if len(tasks) != 4 {
			t.Fatalf("anonymous tasks deduplicated: %d tasks, want 4", len(tasks))
		}
	})
}

func TestAddTasksUnknownProject(t *testing.T) {
	forEachClient(t, func(t *testing.T, c Client) {
		if _, err := c.AddTasks(999, []TaskSpec{{}}); !errors.Is(err, ErrUnknownProject) {
			t.Fatalf("got %v, want ErrUnknownProject", err)
		}
	})
}

func TestAssignmentLifecycle(t *testing.T) {
	forEachClient(t, func(t *testing.T, c Client) {
		p, _ := c.EnsureProject(ProjectSpec{Name: "p", Redundancy: 2})
		c.AddTasks(p.ID, []TaskSpec{{ExternalID: "t1", Payload: map[string]string{"k": "v"}}})

		task, err := c.RequestTask(p.ID, "w1")
		if err != nil {
			t.Fatal(err)
		}
		if task.Payload["k"] != "v" || task.State != TaskOngoing {
			t.Fatalf("bad task: %+v", task)
		}
		run, err := c.Submit(task.ID, "w1", "yes")
		if err != nil {
			t.Fatal(err)
		}
		if run.WorkerID != "w1" || run.Answer != "yes" {
			t.Fatalf("bad run: %+v", run)
		}
		if run.Finished.Before(run.Assigned) {
			t.Fatalf("run finished %v before assigned %v", run.Finished, run.Assigned)
		}

		// Same worker can't get or answer the same task again.
		if _, err := c.RequestTask(p.ID, "w1"); !errors.Is(err, ErrNoTask) {
			t.Fatalf("re-request: got %v, want ErrNoTask", err)
		}
		if _, err := c.Submit(task.ID, "w1", "no"); !errors.Is(err, ErrDuplicateAnswer) {
			t.Fatalf("re-submit: got %v, want ErrDuplicateAnswer", err)
		}

		// Second worker completes the task.
		if _, err := c.Submit(task.ID, "w2", "no"); err != nil {
			t.Fatal(err)
		}
		tasks, _ := c.Tasks(p.ID)
		if tasks[0].State != TaskCompleted || tasks[0].NumAnswers != 2 {
			t.Fatalf("task not completed: %+v", tasks[0])
		}
		if tasks[0].Completed.IsZero() {
			t.Fatal("completed timestamp not set")
		}

		// A third answer exceeds redundancy.
		if _, err := c.Submit(task.ID, "w3", "yes"); !errors.Is(err, ErrTaskCompleted) {
			t.Fatalf("over-submit: got %v, want ErrTaskCompleted", err)
		}

		runs, err := c.Runs(task.ID)
		if err != nil || len(runs) != 2 {
			t.Fatalf("Runs = %v, %v", runs, err)
		}
		if runs[0].WorkerID != "w1" || runs[1].WorkerID != "w2" {
			t.Fatalf("run order wrong: %+v", runs)
		}

		st, err := c.Stats(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := ProjectStats{ProjectID: p.ID, Tasks: 1, CompletedTasks: 1, TaskRuns: 2, Workers: 2}
		if st != want {
			t.Fatalf("stats = %+v, want %+v", st, want)
		}
	})
}

// TestNoTaskLeftRoundTrip: both flavours of "no task" reach the client
// intact — lease-blocked is plain ErrNoTask (retry may help), exhausted
// is ErrNoTaskLeft — over the wire as on the engine. A bare 204 (a node
// that predates the marker) still decodes as plain ErrNoTask.
func TestNoTaskLeftRoundTrip(t *testing.T) {
	if !errors.Is(ErrNoTaskLeft, ErrNoTask) {
		t.Fatal("ErrNoTaskLeft is not an ErrNoTask")
	}
	forEachClient(t, func(t *testing.T, c Client) {
		p, _ := c.EnsureProject(ProjectSpec{Name: "p", Redundancy: 1})
		c.AddTasks(p.ID, []TaskSpec{{ExternalID: "t1"}})
		task, err := c.RequestTask(p.ID, "w1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RequestTask(p.ID, "w2"); !errors.Is(err, ErrNoTask) || errors.Is(err, ErrNoTaskLeft) {
			t.Fatalf("lease-blocked: got %v, want plain ErrNoTask", err)
		}
		if _, err := c.Submit(task.ID, "w1", "yes"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RequestTask(p.ID, "w2"); !errors.Is(err, ErrNoTaskLeft) {
			t.Fatalf("exhausted: got %v, want ErrNoTaskLeft", err)
		}
	})

	bare := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer bare.Close()
	if _, err := NewHTTPClient(bare.URL, bare.Client()).RequestTask(1, "w"); !errors.Is(err, ErrNoTask) || errors.Is(err, ErrNoTaskLeft) {
		t.Fatalf("bare 204: got %v, want plain ErrNoTask", err)
	}
}

func TestBreadthFirstScheduling(t *testing.T) {
	forEachClient(t, func(t *testing.T, c Client) {
		p, _ := c.EnsureProject(ProjectSpec{Name: "p", Redundancy: 2, Strategy: BreadthFirst})
		var specs []TaskSpec
		for i := 0; i < 3; i++ {
			specs = append(specs, TaskSpec{ExternalID: fmt.Sprintf("t%d", i)})
		}
		tasks, _ := c.AddTasks(p.ID, specs)

		// Worker w1 should see t0, t1, t2 (fewest answers, then id).
		for i := 0; i < 3; i++ {
			task, err := c.RequestTask(p.ID, "w1")
			if err != nil {
				t.Fatal(err)
			}
			if task.ID != tasks[i].ID {
				t.Fatalf("breadth-first pick %d: got task %d, want %d", i, task.ID, tasks[i].ID)
			}
			c.Submit(task.ID, "w1", "a")
		}
	})
}

func TestDepthFirstScheduling(t *testing.T) {
	forEachClient(t, func(t *testing.T, c Client) {
		p, _ := c.EnsureProject(ProjectSpec{Name: "p", Redundancy: 3, Strategy: DepthFirst})
		tasks, _ := c.AddTasks(p.ID, []TaskSpec{{ExternalID: "t0"}, {ExternalID: "t1"}})

		// w1 answers t0 once; depth-first should now steer w2 to t0 too.
		task, _ := c.RequestTask(p.ID, "w1")
		c.Submit(task.ID, "w1", "a")
		task2, err := c.RequestTask(p.ID, "w2")
		if err != nil {
			t.Fatal(err)
		}
		if task2.ID != tasks[0].ID {
			t.Fatalf("depth-first: w2 got task %d, want %d", task2.ID, tasks[0].ID)
		}
	})
}

func TestPriorityBreaksTies(t *testing.T) {
	forEachClient(t, func(t *testing.T, c Client) {
		p, _ := c.EnsureProject(ProjectSpec{Name: "p", Redundancy: 1})
		tasks, _ := c.AddTasks(p.ID, []TaskSpec{
			{ExternalID: "low", Priority: 0},
			{ExternalID: "high", Priority: 10},
		})
		task, err := c.RequestTask(p.ID, "w1")
		if err != nil {
			t.Fatal(err)
		}
		if task.ID != tasks[1].ID {
			t.Fatalf("priority ignored: got task %d, want %d", task.ID, tasks[1].ID)
		}
	})
}

func TestPerTaskRedundancyOverride(t *testing.T) {
	forEachClient(t, func(t *testing.T, c Client) {
		p, _ := c.EnsureProject(ProjectSpec{Name: "p", Redundancy: 3})
		tasks, _ := c.AddTasks(p.ID, []TaskSpec{{ExternalID: "t", Redundancy: 1}})
		c.Submit(tasks[0].ID, "w1", "a")
		got, _ := c.Tasks(p.ID)
		if got[0].State != TaskCompleted {
			t.Fatalf("redundancy override not honored: %+v", got[0])
		}
	})
}

func TestRequestValidation(t *testing.T) {
	forEachClient(t, func(t *testing.T, c Client) {
		p, _ := c.EnsureProject(ProjectSpec{Name: "p"})
		if _, err := c.RequestTask(p.ID, ""); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("empty worker: got %v", err)
		}
		if _, err := c.RequestTask(12345, "w"); !errors.Is(err, ErrUnknownProject) {
			t.Fatalf("unknown project: got %v", err)
		}
		if _, err := c.Submit(999, "w", "a"); !errors.Is(err, ErrUnknownTask) {
			t.Fatalf("unknown task: got %v", err)
		}
		if _, err := c.Runs(999); !errors.Is(err, ErrUnknownTask) {
			t.Fatalf("runs of unknown task: got %v", err)
		}
		if _, err := c.Stats(999); !errors.Is(err, ErrUnknownProject) {
			t.Fatalf("stats of unknown project: got %v", err)
		}
		if _, err := c.Tasks(999); !errors.Is(err, ErrUnknownProject) {
			t.Fatalf("tasks of unknown project: got %v", err)
		}
	})
}

// TestTimestampsMonotonic checks the lineage-bearing timestamps are strictly
// ordered under the virtual clock: created < assigned ≤ finished.
func TestTimestampsMonotonic(t *testing.T) {
	engine := NewEngine(vclock.NewVirtual())
	p, _ := engine.EnsureProject(ProjectSpec{Name: "p", Redundancy: 1})
	tasks, _ := engine.AddTasks(p.ID, []TaskSpec{{ExternalID: "t"}})
	task, _ := engine.RequestTask(p.ID, "w1")
	run, _ := engine.Submit(task.ID, "w1", "a")
	if !tasks[0].Created.Before(run.Assigned) {
		t.Fatalf("created %v not before assigned %v", tasks[0].Created, run.Assigned)
	}
	if !run.Assigned.Before(run.Finished) {
		t.Fatalf("assigned %v not before finished %v", run.Assigned, run.Finished)
	}
}

// TestDeterministicScheduling runs the same interleaving twice on fresh
// engines and requires identical task ids, run ids, and timestamps —
// reproducibility all the way down to the platform.
func TestDeterministicScheduling(t *testing.T) {
	trace := func() string {
		e := NewEngine(vclock.NewVirtual())
		p, _ := e.EnsureProject(ProjectSpec{Name: "p", Redundancy: 2})
		var specs []TaskSpec
		for i := 0; i < 5; i++ {
			specs = append(specs, TaskSpec{ExternalID: fmt.Sprintf("t%d", i)})
		}
		e.AddTasks(p.ID, specs)
		out := ""
		for round := 0; round < 4; round++ {
			for _, w := range []string{"w1", "w2", "w3"} {
				task, err := e.RequestTask(p.ID, w)
				if errors.Is(err, ErrNoTask) {
					continue
				}
				run, err := e.Submit(task.ID, w, "ans")
				if err != nil {
					t.Fatal(err)
				}
				out += fmt.Sprintf("%s->%d@%s;", w, task.ID, run.Finished.Format("15:04:05.000"))
			}
		}
		return out
	}
	a, b := trace(), trace()
	if a != b {
		t.Fatalf("nondeterministic scheduling:\n%s\n%s", a, b)
	}
}

func TestEngineProjectsListing(t *testing.T) {
	e := NewEngine(nil)
	e.EnsureProject(ProjectSpec{Name: "b"})
	e.EnsureProject(ProjectSpec{Name: "a"})
	ps := e.Projects()
	if len(ps) != 2 || ps[0].Name != "b" || ps[1].Name != "a" {
		t.Fatalf("Projects() = %+v", ps)
	}
}
