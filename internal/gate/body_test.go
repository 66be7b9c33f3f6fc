package gate

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/repl"
)

// TestGatewayChunkedBodyOverCapNeverReachesANode pins the one body path:
// a chunked request (no Content-Length, so nothing declares its size up
// front) whose body overruns MaxBodyBytes is answered 413 by the gateway
// itself, and no node receives any part of it.
func TestGatewayChunkedBodyOverCapNeverReachesANode(t *testing.T) {
	stub := newStubNode(platform.ReplStats{Role: repl.RoleLeader, Ready: true},
		func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`[]`))
		})
	defer stub.hs.Close()
	g, err := New(Options{
		Topology:      Topology{Nodes: []NodeConfig{{Name: "n1", URL: stub.hs.URL}}},
		ProbeInterval: time.Hour,
		ProbeTimeout:  2 * time.Second,
		MaxBodyBytes:  512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gs := httptest.NewServer(g)
	defer gs.Close()

	// A pipe hides the length from the transport, which then sends the
	// body chunked. The first chunk fits under the cap; the rest arrives
	// only after a pause, long enough for a gateway that forwards as it
	// reads to have handed the first chunk to the node.
	pr, pw := io.Pipe()
	wrote := make(chan struct{})
	defer func() {
		pr.Close() // unblocks the writer if the transport stopped reading
		<-wrote
	}()
	go func() {
		defer close(wrote)
		pw.Write(bytes.Repeat([]byte("x"), 256))
		for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline) && stub.hitCount() == 0; {
			time.Sleep(5 * time.Millisecond)
		}
		pw.Write(bytes.Repeat([]byte("y"), 512))
		pw.Close()
	}()
	req, err := http.NewRequest(http.MethodPost, gs.URL+"/api/projects/1/tasks", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked over-cap body: HTTP %d, want 413", resp.StatusCode)
	}
	if n := stub.hitCount(); n != 0 {
		t.Fatalf("node received %d request(s) for a body the gateway rejects", n)
	}
}

// TestGatewaySubmitBytesPerOpBound is a work bound in the sense of
// ROADMAP item 3, set by the one-body-path change: the bytes allocated by
// one gated Submit over loopback (client → gateway → leader, all in this
// process) stay under 32 KiB. Reading the body once and replaying the
// slice costs about 22 KB; a streaming tee that captures each attempt's
// body for replay costs about 55 KB and fails the bound.
func TestGatewaySubmitBytesPerOpBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bound is meaningless under the race detector")
	}
	const bound = 32 << 10
	l1 := startLeader(t, "n1", []string{"n1"})
	defer l1.close()
	g, err := New(Options{
		Topology:      Topology{Nodes: []NodeConfig{{Name: "n1", URL: l1.hs.URL}}},
		ProbeInterval: time.Hour, // no probe traffic inside the measurement
		ProbeTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gs := httptest.NewServer(g)
	defer gs.Close()

	client := platform.NewHTTPClient(gs.URL, nil)
	p, err := client.EnsureProject(platform.ProjectSpec{Name: "alloc", Redundancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	const warm, ops = 50, 400
	specs := make([]platform.TaskSpec, warm+ops)
	for i := range specs {
		specs[i] = platform.TaskSpec{ExternalID: fmt.Sprintf("t%d", i)}
	}
	tasks, err := client.AddTasks(p.ID, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks[:warm] {
		if _, err := client.Submit(task.ID, "w1", "yes"); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, task := range tasks[warm:] {
		if _, err := client.Submit(task.ID, "w1", "yes"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / ops
	t.Logf("gated Submit: %d B/op, %d allocs/op", perOp, (after.Mallocs-before.Mallocs)/ops)
	if perOp > bound {
		t.Fatalf("gated Submit allocates %d B/op, bound %d", perOp, bound)
	}
}
