package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/gate"
	"repro/internal/platform"
	"repro/internal/repl"
	"repro/internal/storage"
)

// E16Codec measures the binary event codec against encoding/json on
// platform.Event (the encoding it replaced, kept here as the in-process
// comparison arm only), end to end:
//
//   - per-event encode and decode cost plus bytes/event, over a
//     representative mix of run and task-batch events;
//   - full-journal cold replay wall time (recorded, not gated — there is
//     no second journal codec to compare against);
//   - gateway read latency with the frontier-tagged read cache, miss
//     (first read, forwarded to a node) vs hit (repeat read, served from
//     the gateway's memory without touching any node).
//
// The round-trip column asserts the codec loses nothing: a binary
// decode(encode(ev)) renders the same JSON as the original event.
//
// With Config.OutDir set, the record is also written as BENCH_codec.json.
func E16Codec(cfg Config) (Result, error) {
	codecN, replayN, cacheReads := 40_000, 30_000, 150
	if cfg.Quick {
		codecN, replayN, cacheReads = 4000, 3000, 40
	}
	res := Result{
		ID:      "E16",
		Title:   "binary event codec vs JSON — encode/decode, replay, cached gateway reads",
		Headers: []string{"metric", "json / miss", "binary / hit", "improvement"},
	}
	rec, err := runCodecScenario(codecN, replayN, cacheReads)
	if err != nil {
		return res, err
	}
	speedup := func(a, b float64) string {
		if b <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2fx", a/b)
	}
	res.Rows = [][]string{
		{"encode ns/op", ftoa(rec.EncodeJSONNs), ftoa(rec.EncodeBinaryNs), speedup(rec.EncodeJSONNs, rec.EncodeBinaryNs)},
		{"decode ns/op", ftoa(rec.DecodeJSONNs), ftoa(rec.DecodeBinaryNs), speedup(rec.DecodeJSONNs, rec.DecodeBinaryNs)},
		{"bytes/event", ftoa(rec.BytesPerEventJSON), ftoa(rec.BytesPerEventBinary), speedup(rec.BytesPerEventJSON, rec.BytesPerEventBinary)},
		{fmt.Sprintf("replay %d events", rec.ReplayEvents), "",
			(time.Duration(rec.ReplayBinarySeconds * float64(time.Second))).Round(time.Millisecond).String(), ""},
		{fmt.Sprintf("gate read ns/op (%d reads)", rec.CacheReads),
			ftoa(rec.CacheMissNs), ftoa(rec.CacheHitNs), speedup(rec.CacheMissNs, rec.CacheHitNs)},
		{"round-trip identical", fmt.Sprintf("%v", rec.RoundTripIdentical),
			fmt.Sprintf("hits from cache: %v", rec.HitsAvoidNodes), ""},
	}
	if err := CheckCodec([]CodecRecord{rec}); err != nil {
		res.Notes = append(res.Notes, "FAIL: "+err.Error())
	} else {
		res.Notes = append(res.Notes,
			"gate passed: binary codec at least doubles encode+decode throughput and cuts bytes/event by 30%+; cached gateway reads touch no node")
	}
	if cfg.OutDir != "" {
		buf, err := json.MarshalIndent([]CodecRecord{rec}, "", "  ")
		if err != nil {
			return res, err
		}
		path := filepath.Join(cfg.OutDir, "BENCH_codec.json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return res, err
		}
		res.Notes = append(res.Notes, "wrote "+path)
	}
	return res, nil
}

// genCodecEvents builds a deterministic, representative event mix: mostly
// run submissions (the hot path), with a task batch carrying payload maps
// every 20th event to exercise the full schema.
func genCodecEvents(n int) []platform.Event {
	base := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	evs := make([]platform.Event, 0, n)
	for i := 0; len(evs) < n; i++ {
		id := int64(i)
		if i%20 == 19 {
			tasks := make([]platform.Task, 8)
			for k := range tasks {
				tid := id*8 + int64(k)
				tasks[k] = platform.Task{
					ID: tid, ProjectID: 1,
					ExternalID: fmt.Sprintf("img-%d", tid),
					Payload: map[string]string{
						"url":   fmt.Sprintf("https://img.example/%d.jpg", tid),
						"truth": "Yes",
					},
					Redundancy: 3, State: platform.TaskOngoing,
					Created: base.Add(time.Duration(id) * time.Millisecond),
				}
			}
			evs = append(evs, platform.Event{Op: platform.OpTasks, ProjectID: 1, Tasks: tasks})
			continue
		}
		evs = append(evs, platform.Event{Op: platform.OpRun, Run: &platform.TaskRun{
			ID: id, TaskID: id % 500, ProjectID: 1,
			WorkerID: fmt.Sprintf("w-%d", id%50),
			Answer:   `{"label":"bird","confidence":0.87}`,
			Assigned: base.Add(time.Duration(id) * time.Millisecond),
			Finished: base.Add(time.Duration(id+1) * time.Millisecond),
		}})
	}
	return evs
}

// runCodecScenario takes all three measurements and fills one record.
func runCodecScenario(codecN, replayN, cacheReads int) (CodecRecord, error) {
	rec := CodecRecord{Events: codecN, ReplayEvents: replayN, CacheReads: cacheReads, CPUs: runtime.NumCPU()}
	evs := genCodecEvents(codecN)

	// Encode: JSON then binary, total wall over the event set.
	jsonVals := make([][]byte, len(evs))
	start := time.Now()
	var jsonBytes int
	for i := range evs {
		buf, err := json.Marshal(&evs[i])
		if err != nil {
			return rec, err
		}
		jsonVals[i] = buf
		jsonBytes += len(buf)
	}
	rec.EncodeJSONNs = float64(time.Since(start).Nanoseconds()) / float64(len(evs))
	rec.BytesPerEventJSON = float64(jsonBytes) / float64(len(evs))

	binVals := make([][]byte, len(evs))
	start = time.Now()
	var binBytes int
	for i := range evs {
		binVals[i] = platform.EncodeEventFrame(nil, &evs[i])
		binBytes += len(binVals[i])
	}
	rec.EncodeBinaryNs = float64(time.Since(start).Nanoseconds()) / float64(len(evs))
	rec.BytesPerEventBinary = float64(binBytes) / float64(len(evs))

	// Decode: same values back. The binary pass also proves the
	// round-trip invariant — decoded events must render the same JSON as
	// the originals (checked outside the timed loop).
	start = time.Now()
	for i := range jsonVals {
		var ev platform.Event
		if err := json.Unmarshal(jsonVals[i], &ev); err != nil {
			return rec, err
		}
	}
	rec.DecodeJSONNs = float64(time.Since(start).Nanoseconds()) / float64(len(jsonVals))

	decoded := make([]platform.Event, len(binVals))
	start = time.Now()
	for i := range binVals {
		ev, err := platform.DecodeEventFrame(binVals[i])
		if err != nil {
			return rec, err
		}
		decoded[i] = ev
	}
	rec.DecodeBinaryNs = float64(time.Since(start).Nanoseconds()) / float64(len(binVals))

	rec.RoundTripIdentical = true
	for i := range decoded {
		got, err := json.Marshal(&decoded[i])
		if err != nil {
			return rec, err
		}
		if !bytes.Equal(got, jsonVals[i]) {
			rec.RoundTripIdentical = false
			rec.Note = fmt.Sprintf("event %d: binary round trip %s != %s", i, got, jsonVals[i])
			break
		}
	}

	// Replay: a journal replayed cold.
	var err error
	if rec.ReplayBinarySeconds, err = timeReplay(replayN); err != nil {
		return rec, err
	}

	return runCacheScenario(rec, cacheReads)
}

// timeReplay writes n events into a fresh journal, closes it, and times
// a full cold replay.
func timeReplay(n int) (float64, error) {
	dir, err := os.MkdirTemp("", "reprowd-e16-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		return 0, err
	}
	defer db.Close()
	j, err := platform.OpenJournal(db)
	if err != nil {
		return 0, err
	}
	evs := genCodecEvents(n)
	const batch = 256
	for off := 0; off < len(evs); off += batch {
		end := off + batch
		if end > len(evs) {
			end = len(evs)
		}
		if err := j.AppendBatch(evs[off:end]); err != nil {
			return 0, err
		}
	}
	if err := j.Close(); err != nil {
		return 0, err
	}
	j2, err := platform.OpenJournal(db)
	if err != nil {
		return 0, err
	}
	defer j2.Close()
	count := 0
	start := time.Now()
	if err := j2.Replay(func(ev platform.Event) error { count++; return nil }); err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Seconds()
	if count != n {
		return 0, fmt.Errorf("exp e16: replayed %d events, want %d", count, n)
	}
	return elapsed, nil
}

// runCacheScenario measures gateway read latency through the frontier
// cache: one leader, one gateway, reads of per-task run lists — first
// touch misses (forwarded to the node), repeats hit (served from gateway
// memory). HitsAvoidNodes is the structural claim: the node's proxied
// read counter must not move during the hit pass.
func runCacheScenario(rec CodecRecord, reads int) (CodecRecord, error) {
	dir, err := os.MkdirTemp("", "reprowd-e16-gate-*")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(dir)

	ring := repl.NewRing(0, "n1")
	l, err := startGateLeader(filepath.Join(dir, "n1"), "n1", ring, 1<<20)
	if err != nil {
		return rec, err
	}
	defer l.close()

	g, err := gate.New(gate.Options{
		Topology:      gate.Topology{Nodes: []gate.NodeConfig{{Name: "n1", URL: l.hs.URL}}},
		ProbeInterval: 25 * time.Millisecond,
		ReadCache:     true,
	})
	if err != nil {
		return rec, err
	}
	defer g.Close()
	gs := httptest.NewServer(g)
	defer gs.Close()
	client := platform.NewGatewayHTTPClient(gs.URL, nil)

	p, err := client.EnsureProject(platform.ProjectSpec{Name: "e16-cache", Redundancy: 1})
	if err != nil {
		return rec, err
	}
	specs := make([]platform.TaskSpec, reads)
	for i := range specs {
		specs[i] = platform.TaskSpec{ExternalID: fmt.Sprintf("e16-%d", i)}
	}
	tasks, err := client.AddTasks(p.ID, specs)
	if err != nil {
		return rec, err
	}
	for i, t := range tasks {
		if _, err := client.Submit(t.ID, fmt.Sprintf("w-%d", i%7), "yes"); err != nil {
			return rec, err
		}
	}

	// Let the fast-acked tail flush and the gateway's probe observe the
	// final frontier, so cached entries stay fresh through both passes.
	want := uint64(1 + 1 + len(tasks)) // project + task batch + one run each
	if err := waitJournalLen(l.j, want); err != nil {
		return rec, err
	}
	deadline := time.Now().Add(time.Minute)
	for {
		ns := g.Snapshot().Nodes
		if len(ns) == 1 && ns[0].Reachable && ns[0].AppliedSeq >= want {
			break
		}
		if time.Now().After(deadline) {
			return rec, fmt.Errorf("exp e16: gateway probe never observed frontier %d", want)
		}
		time.Sleep(5 * time.Millisecond)
	}

	nodeReads := func() uint64 {
		var total uint64
		for _, n := range g.Snapshot().Nodes {
			total += n.Reads
		}
		return total
	}

	// Miss pass: first read of every task's run list.
	start := time.Now()
	for _, t := range tasks {
		if _, err := client.Runs(t.ID); err != nil {
			return rec, err
		}
	}
	rec.CacheMissNs = float64(time.Since(start).Nanoseconds()) / float64(len(tasks))

	// Hit pass: the same reads again, now served from the cache.
	readsBefore := nodeReads()
	start = time.Now()
	for _, t := range tasks {
		if _, err := client.Runs(t.ID); err != nil {
			return rec, err
		}
	}
	rec.CacheHitNs = float64(time.Since(start).Nanoseconds()) / float64(len(tasks))
	rec.HitsAvoidNodes = nodeReads() == readsBefore

	st := g.Snapshot().Stats
	rec.CacheHits = st.CacheHits
	rec.CacheMisses = st.CacheMisses
	if rec.HitsAvoidNodes && rec.CacheHits < uint64(len(tasks)) {
		rec.HitsAvoidNodes = false
		rec.Note = fmt.Sprintf("only %d cache hits over %d repeat reads", rec.CacheHits, len(tasks))
	}
	return rec, nil
}
