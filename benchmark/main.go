// Command benchmark is the repository's end-to-end benchmark (E18): it
// stands the crowd-join topology up in-process on loopback sockets, runs
// four workloads through it, checks their outputs, and prints every
// end-to-end metric; a traced run adds the per-layer budget. README.md in
// this directory says what each workload and metric is for.
//
// Usage:
//
//	go run ./benchmark -all                       # every workload, untraced
//	go run ./benchmark -workload read_mix -trace 1
//	go run ./benchmark -repeat 10                 # noise calibration
//
// The driver's contract form is
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// whose last line of output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"repro/internal/metrics"
	"sort"
	"strings"
)

// e2eNames are the gated end-to-end metrics, in BENCHMARK.json order.
// Every workload reports every one of them (the contract's rule), so each
// workload runs the whole lifecycle on its own topology.
var e2eNames = []string{
	"setup_s", "resolved_s", "assignments_per_s", "request_p50_ms", "submit_p50_ms",
	"reads_per_s", "read_p50_ms", "rerun_s", "recover_s", "catchup_s",
}

// unitOf derives a metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_n"):
		return "count"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "ns_per_event"):
		return "ns"
	case strings.HasSuffix(name, "bytes_per_event"), strings.HasSuffix(name, "bytes_per_assignment"), strings.HasSuffix(name, "_bytes"):
		return "B"
	case strings.HasSuffix(name, "ms_per_assignment"):
		return "ms"
	case strings.HasSuffix(name, "lag_events_p50"), strings.HasSuffix(name, "lag_events_max"):
		return "count"
	}
	return "ratio"
}

// reads is the read-phase latency sample: Runs and Stats replies.
func (r *run) reads() []float64 {
	return append(append([]float64(nil), r.readRec.lat[opRuns]...), r.readRec.lat[opStats]...)
}

// tailNames are the end-to-end tail latencies: measured on every run,
// reported by the traced run in the per-layer list, never gated.
var tailNames = []string{"request_p99_ms", "submit_p99_ms", "read_p99_ms"}

func (r *run) tails() map[string]float64 {
	return map[string]float64{
		"request_p99_ms": quantile(r.workRec.lat[opRequestTask], 0.99) * 1e3,
		"submit_p99_ms":  quantile(r.workRec.lat[opSubmit], 0.99) * 1e3,
		"read_p99_ms":    quantile(r.reads(), 0.99) * 1e3,
	}
}

// endToEnd computes the gated metrics (and the tails, which calibration
// also watches) and the sample count behind each.
func (r *run) endToEnd() (map[string]float64, map[string]int) {
	var resolved, aps, rps []float64
	for _, rd := range r.workRounds {
		resolved = append(resolved, rd.wall)
		aps = append(aps, float64(rd.accepted)/rd.wall)
	}
	for _, rd := range r.readRounds {
		rps = append(rps, float64(rd.reads)/rd.wall)
	}
	reads := r.reads()
	m := map[string]float64{
		"setup_s":           metrics.Median(r.setupSecs),
		"resolved_s":        metrics.Median(resolved),
		"assignments_per_s": metrics.Median(aps),
		"request_p50_ms":    quantile(r.workRec.lat[opRequestTask], 0.5) * 1e3,
		"submit_p50_ms":     quantile(r.workRec.lat[opSubmit], 0.5) * 1e3,
		"reads_per_s":       metrics.Median(rps),
		"read_p50_ms":       quantile(reads, 0.5) * 1e3,
		"rerun_s":           metrics.Median(r.rerunSecs),
		"recover_s":         metrics.Median(r.recoverSecs),
		"catchup_s":         metrics.Median(r.catchupSecs),
	}
	for name, v := range r.tails() {
		m[name] = v
	}
	n := map[string]int{
		"setup_s": len(r.setupSecs), "resolved_s": len(resolved), "assignments_per_s": len(aps),
		"request_p50_ms": len(r.workRec.lat[opRequestTask]), "submit_p50_ms": len(r.workRec.lat[opSubmit]),
		"reads_per_s": len(rps), "read_p50_ms": len(reads),
		"rerun_s": len(r.rerunSecs), "recover_s": len(r.recoverSecs), "catchup_s": len(r.catchupSecs),
	}
	return m, n
}

// outcome is what one workload execution reports.
type outcome struct {
	metrics   map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	failures  []string
	notes     []string
	wall      float64 // timed wall, for the tracing overhead ratio
	info      string
}

// runOnce executes one workload once. untracedWall is only used by a
// traced run, for trace.overhead_ratio.
func runOnce(w workload, cfg config, untracedWall float64, log io.Writer) (outcome, error) {
	data, err := filepath.Abs(cfg.dataDir)
	if err != nil {
		return outcome{}, err
	}
	if err := os.MkdirAll(data, 0o755); err != nil {
		return outcome{}, err
	}
	dir, err := os.MkdirTemp(data, w.name+"-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	r := &run{cfg: cfg, w: w, sz: w.full, dir: dir}
	if cfg.short {
		r.sz = w.short
	}
	if cfg.traced {
		r.tr = newTracer()
	}
	defer r.tearDown()
	if err := r.execute(); err != nil {
		return outcome{}, err
	}

	out := outcome{wall: r.timedWall(), failures: r.failures, notes: r.notes}
	recs := []*recorder{r.workRec, r.rerunRec}
	if r.readRec != r.workRec { // read_mix's work phase is its read phase
		recs = append(recs, r.readRec)
	}
	for _, rec := range recs {
		out.attempted += rec.attempts()
		out.failed += rec.failed
	}
	out.info = fmt.Sprintf("data dir on %s; mean journal commit (apply + fsync) %.0f µs over %d flushes",
		fsInfo(dir), ratio(float64(r.commitNs)/1e3, float64(r.flushes)), r.flushes)

	if !cfg.traced {
		out.metrics, out.samples = r.endToEnd()
		return out, nil
	}
	path := filepath.Join(cfg.outDir, w.name+".trace.json")
	spans, err := r.tr.flush(path)
	if err != nil {
		return out, err
	}
	out.metrics = r.layerMetrics(untracedWall, spans)
	out.failures = r.failures // the codec probe may have added one
	if fs := out.metrics["storage.fsyncs_n"]; fs > 0 {
		out.info += fmt.Sprintf("; mean fsync %.0f µs", out.metrics["storage.fsync_s"]/fs*1e6)
	}
	fmt.Fprintf(log, "wrote %d spans to %s\n", spans, path)
	printBudget(log, r)
	return out, nil
}

// printBudget prints where a Submit's latency and the time to a resolved
// result go, from the traced run's spans and registries. The engine's
// phases are only known as means (sampled histograms), so the whole Submit
// table is in means, which add up; the median is printed for reference.
func printBudget(log io.Writer, r *run) {
	w := r.timed
	lt := w.layers
	total := metrics.Mean(r.workRec.lat[opSubmit])
	if total == 0 {
		return
	}
	stage := histMean(w.before.leaderReg, w.after.leaderReg, "reprowd_engine_stage_seconds")
	wait := histMean(w.before.leaderReg, w.after.leaderReg, "reprowd_engine_flush_wait_seconds")
	fin := histMean(w.before.leaderReg, w.after.leaderReg, "reprowd_engine_finalize_seconds")
	fsync := histMean(w.before.leaderReg, w.after.leaderReg, "reprowd_storage_fsync_seconds")
	node := metrics.Mean(lt.nodeSubmit)
	front := node // what the client's request reaches first
	if len(lt.gateSubmit) > 0 {
		front = metrics.Mean(lt.gateSubmit)
	}
	rows := []struct {
		name string
		v    float64
	}{
		{"client + loopback", total - front},
		{"gate.self", metrics.Mean(lt.gateSubmitSelf)},
		{"platform http (node span − engine)", node - stage - wait - fin},
		{"engine stage", stage},
		{"engine flush-wait", wait},
		{"  of which one fsync", fsync},
		{"engine finalize", fin},
	}
	fmt.Fprintf(log, "budget of the mean Submit (%.3f ms client-side; median %.3f ms) on %s:\n",
		total*1e3, quantile(r.workRec.lat[opSubmit], 0.5)*1e3, r.w.name)
	for _, row := range rows {
		fmt.Fprintf(log, "  %-36s %8.3f ms  %5.1f%%\n", row.name, row.v*1e3, 100*row.v/total)
	}
	jj, ok := r.job.(*joinJob)
	if !ok {
		return
	}
	resolved := 0.0
	for _, rd := range r.workRounds {
		resolved += rd.wall
	}
	fmt.Fprintf(log, "budget of resolved_s (%.3f s over %d rounds) on %s:\n", resolved, len(r.workRounds), r.w.name)
	for _, row := range []struct {
		name string
		v    float64
	}{{"publish", jj.timed.publishS}, {"answer (crowd drains)", jj.timed.answerS}, {"collect tail", jj.timed.tailS}} {
		fmt.Fprintf(log, "  %-36s %8.3f s   %5.1f%%\n", row.name, row.v, 100*row.v/resolved)
	}
}

// report prints one outcome: a table for people, then the contract's JSON
// object as the last line.
func report(log io.Writer, w workload, names []string, out outcome) {
	fmt.Fprintf(log, "%s: %s\n", w.name, out.info)
	for _, name := range names {
		n := ""
		if c, ok := out.samples[name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(log, "  %-38s %14.4f %-5s%s\n", name, out.metrics[name], unitOf(name), n)
	}
	for _, n := range out.notes {
		fmt.Fprintf(log, "  note: %s\n", n)
	}
	for _, f := range out.failures {
		fmt.Fprintf(log, "  CHECK FAILED: %s\n", f)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	js := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.failures) == 0, out.attempted, out.failed, map[string]metric{}}
	for _, name := range names {
		js.Metrics[name] = metric{out.metrics[name], unitOf(name)}
	}
	buf, _ := json.Marshal(js)
	fmt.Fprintf(log, "%s\n", buf)
}

// quartiles is Python's statistics.quantiles(xs, n=4), which the driver
// uses to judge spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// bounds reads each gated metric's regression bound from BENCHMARK.json
// in the working directory.
func bounds() (map[string]float64, error) {
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("-repeat judges spreads against BENCHMARK.json: %w", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// calibrate is the -repeat mode: run each workload n times untraced, each
// time on another seed as the driver does, and print every gated metric's
// min, median, max and quartile spread as a share of the median. A spread
// above the metric's bound fails; one above a third of it is flagged.
func calibrate(ws []workload, cfg config, n int, log io.Writer) error {
	bound, err := bounds()
	if err != nil {
		return err
	}
	bad := 0
	watched := append(append([]string(nil), e2eNames...), tailNames...)
	for _, w := range ws {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			c := cfg
			c.seed += int64(i)
			out, err := runOnce(w, c, 0, log)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, c.seed, err)
			}
			if len(out.failures) > 0 {
				return fmt.Errorf("%s seed %d: %s", w.name, c.seed, strings.Join(out.failures, "; "))
			}
			for _, name := range watched {
				vals[name] = append(vals[name], out.metrics[name])
			}
		}
		fmt.Fprintf(log, "%s over %d seeds from %d:\n  %-20s %12s %12s %12s %8s %6s\n",
			w.name, n, cfg.seed, "metric", "min", "median", "max", "spread", "bound")
		for _, name := range watched {
			xs := vals[name]
			q1, q2, q3 := quartiles(xs)
			spread := (q3 - q1) / q2
			flag := ""
			switch b, gated := bound[name]; {
			case !gated:
				flag = "  not gated"
			case name != "setup_s" && spread > b:
				flag, bad = "  EXCEEDS BOUND", bad+1
			case spread > bound[name]/3:
				flag = "  above a third of the bound"
			}
			sort.Float64s(xs)
			fmt.Fprintf(log, "  %-20s %12.4f %12.4f %12.4f %7.2f%% %5.0f%%%s\n",
				name, xs[0], q2, xs[len(xs)-1], 100*spread, 100*bound[name], flag)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric spreads exceed their bounds", bad)
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: join_gated, submit_direct, read_mix or rerun_recover (default: all)")
		all     = flag.Bool("all", false, "run every workload (the default when -workload is not given)")
		seed    = flag.Int64("seed", 20160903, "seed for the corpus, the crowd pools and the operation sequences")
		seconds = flag.Int("seconds", 10, "how long a run measures; scales round and probe counts, never sizes")
		trace   = flag.Int("trace", 0, "1: repeat each workload with span wrappers and registries on and report per-layer metrics")
		repeat  = flag.Int("repeat", 0, "noise calibration: run each workload this many times and report spreads against BENCHMARK.json's bounds")
		data    = flag.String("data", ".bench_build/data", "directory the nodes' data directories are created under")
		outDir  = flag.String("out", "benchmark/out", "directory traced runs write <workload>.trace.json to")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || (*all && *name != "") {
		flag.Usage()
		os.Exit(2)
	}
	ws := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		ws = []workload{w}
	}
	cfg := config{seed: *seed, seconds: *seconds, dataDir: *data, outDir: *outDir}
	if err := mainErr(ws, cfg, *trace == 1, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(ws []workload, cfg config, traced bool, repeat int) error {
	log := os.Stdout
	if repeat > 0 {
		return calibrate(ws, cfg, repeat, log)
	}
	incorrect := 0
	for _, w := range ws {
		out, err := runOnce(w, cfg, 0, log)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		report(log, w, e2eNames, out)
		if traced && len(out.failures) == 0 {
			// The per-layer numbers come from a second, traced run of the
			// same seed; the untraced one above is its overhead baseline.
			tcfg := cfg
			tcfg.traced = true
			if out, err = runOnce(w, tcfg, out.wall, log); err != nil {
				return fmt.Errorf("%s traced: %w", w.name, err)
			}
			report(log, w, layerNames, out)
		}
		incorrect += len(out.failures)
	}
	if incorrect > 0 {
		return fmt.Errorf("%d output checks failed", incorrect)
	}
	return nil
}
