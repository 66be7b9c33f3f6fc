package exp

import (
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/platform"
	"repro/internal/simdata"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// E7Storage characterizes the embedded database (Figure 1's "database"
// box): write throughput per sync policy, recovery time with and without
// hint files, and compaction.
func E7Storage(cfg Config) (Result, error) {
	n := 20000
	if cfg.Quick {
		n = 1500
	}
	res := Result{
		ID:      "E7",
		Title:   "storage engine — throughput, recovery, compaction",
		Headers: []string{"operation", "records", "wall time", "rate"},
	}
	val := make([]byte, 256)

	// Write throughput. SyncBatch runs the same Put path as SyncNever (the
	// journal, not the store, fsyncs its groups), so one row covers both.
	dir, err := os.MkdirTemp("", "reprowd-e7-*")
	if err != nil {
		return res, err
	}
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever, MaxSegmentBytes: 4 << 20})
	if err != nil {
		os.RemoveAll(dir)
		return res, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%09d", i)), val); err != nil {
			db.Close()
			os.RemoveAll(dir)
			return res, err
		}
	}
	wall := time.Since(start)
	res.Rows = append(res.Rows, []string{"put sync=never", itoa(n), wall.Round(time.Microsecond).String(), rate(n, wall)})
	db.Close()
	os.RemoveAll(dir)

	// Recovery: scan vs hints over the same data.
	dir, err = os.MkdirTemp("", "reprowd-e7-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	db, err = storage.Open(dir, storage.Options{Sync: storage.SyncNever, MaxSegmentBytes: 1 << 20})
	if err != nil {
		return res, err
	}
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%09d", i%(n/2))), val) // 50% dead
	}
	db.Close()

	start = time.Now()
	db, err = storage.Open(dir, storage.Options{Sync: storage.SyncNever, MaxSegmentBytes: 1 << 20})
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, []string{"recovery (hints)", itoa(n), time.Since(start).Round(time.Microsecond).String(), rate(n, time.Since(start))})
	db.Close()

	// Recovery without hints (scan) — identical on-disk state, hint
	// files removed so every segment is replayed frame by frame.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if len(e.Name()) > 5 && e.Name()[len(e.Name())-5:] == ".hint" {
			os.Remove(dir + "/" + e.Name())
		}
	}
	start = time.Now()
	db, err = storage.Open(dir, storage.Options{Sync: storage.SyncNever, MaxSegmentBytes: 1 << 20})
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, []string{"recovery (scan)", itoa(n), time.Since(start).Round(time.Microsecond).String(), rate(n, time.Since(start))})

	// Compaction of the same store (50% dead bytes by construction).
	before := db.Stats()
	start = time.Now()
	if err := db.Compact(); err != nil {
		db.Close()
		return res, err
	}
	compactWall := time.Since(start)
	after := db.Stats()
	res.Rows = append(res.Rows, []string{"compaction", itoa(before.Keys), compactWall.Round(time.Microsecond).String(),
		fmt.Sprintf("%d -> %d bytes", before.TotalBytes, after.TotalBytes)})
	db.Close()

	res.Notes = append(res.Notes, "ablation A2: hints accelerate recovery")
	return res, nil
}

func rate(n int, d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f ops/s", float64(n)/d.Seconds())
}

// E8PlatformBindings runs the identical experiment through the in-process
// engine and through the HTTP REST binding, verifying semantic equivalence
// and measuring the wire's cost.
func E8PlatformBindings(cfg Config) (Result, error) {
	n := 200
	if cfg.Quick {
		n = 20
	}
	res := Result{
		ID:      "E8",
		Title:   "platform bindings — in-process engine vs HTTP REST",
		Headers: []string{"binding", "tasks", "answers", "mv accuracy", "wall time"},
	}

	run := func(name string, client platform.Client, clock *vclock.Virtual, engine *platform.Engine) error {
		dir, err := os.MkdirTemp("", "reprowd-e8-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cc, err := core.NewContext(core.Options{
			DBDir:   dir,
			Client:  client,
			Clock:   clock,
			Storage: storage.Options{Sync: storage.SyncNever},
		})
		if err != nil {
			return err
		}
		defer cc.Close()

		objects := imagesAsObjects(simdata.Images(cfg.Seed, n))
		start := time.Now()
		cd, err := cc.CrowdData(objects, "bind")
		if err != nil {
			return err
		}
		cd.SetPresenter(core.ImageLabel("Match?"))
		if _, err := cd.Publish(core.PublishOptions{Redundancy: 3}); err != nil {
			return err
		}
		pid, err := cd.ProjectID()
		if err != nil {
			return err
		}
		pool := crowd.NewPool(cfg.Seed, clock, crowd.Spec{Count: 5, Model: crowd.Uniform{P: 0.85}, Prefix: "w"})
		// The pool drains through the same binding under test.
		if _, err := pool.Drain(client, pid, labelOracle); err != nil {
			return err
		}
		if _, err := cd.Collect(); err != nil {
			return err
		}
		if err := cd.MajorityVote("mv"); err != nil {
			return err
		}
		wall := time.Since(start)

		correct := 0
		for _, row := range cd.Rows() {
			if row.Value("mv") == row.Object["truth"] {
				correct++
			}
		}
		st, err := engine.Stats(pid)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, []string{
			name, itoa(st.Tasks), itoa(st.TaskRuns),
			ftoa(float64(correct) / float64(n)), wall.Round(time.Microsecond).String(),
		})
		return nil
	}

	// In-process.
	clock1 := vclock.NewVirtual()
	engine1 := platform.NewEngine(clock1)
	if err := run("in-process", engine1, clock1, engine1); err != nil {
		return res, err
	}

	// HTTP: same engine semantics behind a real net/http server.
	clock2 := vclock.NewVirtual()
	engine2 := platform.NewEngine(clock2)
	srv := httptest.NewServer(platform.NewServer(engine2))
	defer srv.Close()
	httpClient := platform.NewHTTPClient(srv.URL, srv.Client())
	if err := run("http-rest", httpClient, clock2, engine2); err != nil {
		return res, err
	}

	// Semantic equivalence: identical tasks/answers/accuracy columns.
	if len(res.Rows) == 2 {
		same := res.Rows[0][1] == res.Rows[1][1] && res.Rows[0][2] == res.Rows[1][2] && res.Rows[0][3] == res.Rows[1][3]
		if same {
			res.Notes = append(res.Notes, "bindings are semantically identical; the wire only costs wall time")
		} else {
			res.Notes = append(res.Notes, "FAIL: bindings disagree")
		}
	}
	return res, nil
}
