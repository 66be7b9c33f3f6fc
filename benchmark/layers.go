package main

import (
	"bufio"
	"os"
	"repro/internal/metrics"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/gate"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/quality"
	"repro/internal/storage"
)

// Per-layer metrics, all obtained from outside the program: exact counts
// from the public Stats() accessors and the wrappers in trace.go, times
// from spans, and — where only a 1-in-8 sampled histogram exists — the
// sampled mean times the exact operation count, which the README labels
// an estimate.

// layerNames is every per-layer metric a traced run reports, in
// BENCHMARK.json order. A layer that does no work on a workload reports 0.
var layerNames = []string{
	"client.add_tasks_n", "client.add_tasks_s", "client.request_task_n", "client.request_task_s",
	"client.submit_n", "client.submit_s", "client.tasks_n", "client.tasks_s",
	"client.runs_n", "client.runs_s", "client.stats_n", "client.stats_s",
	"gate.serve_s", "gate.self_s", "gate.requests_n", "gate.retries_n", "gate.errors_n",
	"gate.cache_hit_ratio", "gate.reads_follower_share",
	"platform.serve_s", "platform.serve_follower_s",
	"platform.engine_stage_s", "platform.engine_flush_wait_s", "platform.engine_finalize_s",
	"platform.journal_flushes_n", "platform.journal_events_per_flush", "platform.journal_commit_s",
	"platform.checkpoints_n", "platform.checkpoint_cut_s",
	"platform.journal_open_s", "platform.engine_replay_s", "platform.replay_events_n",
	"platform.codec_encode_ns_per_event", "platform.codec_decode_ns_per_event", "platform.codec_bytes_per_event",
	"storage.fsyncs_n", "storage.fsyncs_per_assignment", "storage.fsync_s", "storage.sync_elides_n",
	"storage.apply_s", "storage.bytes_per_assignment", "storage.open_s",
	"sched.acquire_n", "sched.acquire_s", "sched.no_task_n", "sched.reclaimed_n",
	"repl.lag_events_p50", "repl.lag_events_max", "repl.streamed_events_n", "repl.rebootstraps_n", "repl.bootstrap_s",
	"core.open_s", "core.ctxdb_applies_n", "core.ctxdb_fsyncs_n", "core.ctxdb_fsync_s",
	"distops.publish_s", "distops.add_tasks_n", "distops.poll_rounds_n", "distops.poll_bytes",
	"distops.runs_fetch_n", "distops.useful_poll_ratio", "distops.streamed_n", "distops.collect_tail_s",
	"quality.online_observe_s", "quality.online_finalize_s", "quality.batch_fit_s",
	"ops.top_pairs_s", "crowd.self_s", "crowd.dropouts_n", "crowd.returns_n",
	"proc.cpu_s", "proc.cpu_ms_per_assignment", "proc.alloc_mb", "proc.gc_pause_ms", "proc.heap_inuse_peak_mb",
	"trace.spans_n", "trace.overhead_ratio",
	// End-to-end tail latencies whose run-to-run spread is too wide to
	// gate; reported from the traced run, never bounded (see README).
	"request_p99_ms", "submit_p99_ms", "read_p99_ms",
}

// scrape parses a registry's Prometheus text exposition into name → value,
// summing label sets; histograms contribute their _sum and _count.
func scrape(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	if reg == nil {
		return out
	}
	sc := bufio.NewScanner(strings.NewReader(reg.Expose()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		out[name] += v
	}
	return out
}

// counters is one reading of everything the window diffs.
type counters struct {
	journal   platform.JournalStats
	store     storage.Stats
	cuts      uint64
	streamed  uint64
	leaderReg map[string]float64 // leaders' registries, summed
	gate      gate.StatsSnapshot
	gateErrs  int64
	ctxStore  storage.Stats
	ctxReg    map[string]float64
	cpu       float64
	mem       runtime.MemStats
	bytes     [numOps]int64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func readCounters(r *run) counters {
	c := counters{leaderReg: map[string]float64{}}
	for _, l := range r.c.leaders {
		js, ss := l.j.Stats(), l.db.Stats()
		c.journal.Flushes += js.Flushes
		c.journal.FlushedEvents += js.FlushedEvents
		c.journal.CommitNanos += js.CommitNanos
		c.store.Syncs += ss.Syncs
		c.store.SyncElides += ss.SyncElides
		c.store.Applies += ss.Applies
		c.store.TotalBytes += ss.TotalBytes
		c.cuts += l.cp.Stats().Checkpoints
		c.streamed += l.node.Stats().EventsStreamed
		for k, v := range scrape(l.reg) {
			c.leaderReg[k] += v
		}
		c.gateErrs += l.errs.Load()
	}
	for _, f := range r.c.followers {
		c.gateErrs += f.errs.Load()
	}
	if r.c.gw != nil {
		c.gate = r.c.gw.Snapshot().Stats
		c.gateErrs += r.c.gwErrs.Load()
	}
	if jj, ok := r.job.(*joinJob); ok {
		c.ctxStore = jj.cc.DB().Stats()
		c.ctxReg = scrape(jj.ctxReg)
	}
	c.cpu = cpuSeconds()
	runtime.ReadMemStats(&c.mem)
	for o := range c.bytes {
		c.bytes[o] = r.tr.bytes[o].Load()
	}
	return c
}

// window brackets the timed section (work + read-back) of a traced run:
// counter readings at both ends, the spans in between, and a 50 ms
// sampler for follower lag and heap size. Untraced it only keeps time.
type window struct {
	start, end    time.Time
	mark          int
	layers        layerTimes // span sums over the window
	before, after counters
	lag           []float64
	heapPeak      uint64
	stop, done    chan struct{}
}

func openWindow(r *run) *window {
	w := &window{start: time.Now()}
	if r.tr == nil {
		return w
	}
	w.mark = r.tr.mark()
	w.before = readCounters(r)
	w.stop, w.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(w.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
			for _, f := range r.c.followers {
				w.lag = append(w.lag, float64(f.node.Stats().Lag))
			}
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > w.heapPeak {
				w.heapPeak = ms.HeapInuse
			}
		}
	}()
	return w
}

func (w *window) close(r *run) {
	w.end = time.Now()
	if r.tr == nil {
		return
	}
	close(w.stop)
	<-w.done
	w.after = readCounters(r)
	w.layers = r.tr.since(w.mark)
}

// mean is a histogram's sampled mean over the window.
func histMean(before, after map[string]float64, name string) float64 {
	n := after[name+"_count"] - before[name+"_count"]
	if n <= 0 {
		return 0
	}
	return (after[name+"_sum"] - before[name+"_sum"]) / n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timedWall is the wall time of the rounds the end-to-end metrics are
// computed from; tracing overhead is the ratio of two of these.
func (r *run) timedWall() float64 {
	s := 0.0
	for _, rd := range r.workRounds {
		s += rd.wall
	}
	if r.sz.sweep > 0 {
		for _, rd := range r.readRounds {
			s += rd.wall
		}
	}
	return s
}

func (r *run) accepted() int {
	n := 0
	for _, rd := range r.workRounds {
		n += rd.accepted
	}
	return n
}

// layerMetrics computes every per-layer metric of a traced run.
// untracedWall is the same seed's timed wall with tracing off.
func (r *run) layerMetrics(untracedWall float64, spans int) map[string]float64 {
	m := make(map[string]float64, len(layerNames))
	for _, name := range layerNames {
		m[name] = 0
	}
	w := r.timed
	b, a := w.before, w.after
	assignments := float64(r.accepted())

	// client: the platform.Client wrapper, work and read-back phases.
	rec := &recorder{}
	rec.merge(r.workRec)
	if r.readRec != r.workRec {
		rec.merge(r.readRec)
	}
	for o := opAddTasks; o <= opStats; o++ {
		m["client."+opNames[o]+"_n"] = float64(rec.calls[o])
		m["client."+opNames[o]+"_s"] = rec.busy[o]
	}

	// gate and platform serve times: handler spans.
	lt := w.layers
	m["gate.serve_s"] = lt.gateServe
	m["gate.self_s"] = lt.gateSelf
	m["gate.requests_n"] = float64(lt.gateRequests)
	m["gate.retries_n"] = float64(a.gate.Retries - b.gate.Retries)
	m["gate.errors_n"] = float64(a.gateErrs - b.gateErrs)
	if n := a.gateErrs - b.gateErrs; n > 0 {
		r.failf("%d requests were answered 5xx", n) // a client retry may have hidden them
	}
	hits, misses := float64(a.gate.CacheHits-b.gate.CacheHits), float64(a.gate.CacheMisses-b.gate.CacheMisses)
	m["gate.cache_hit_ratio"] = ratio(hits, hits+misses)
	fr, lr := float64(a.gate.ReadsFollower-b.gate.ReadsFollower), float64(a.gate.ReadsLeader-b.gate.ReadsLeader)
	m["gate.reads_follower_share"] = ratio(fr, fr+lr)
	m["platform.serve_s"] = lt.nodeServe
	m["platform.serve_follower_s"] = lt.followerServe

	// engine phases: 1-in-8 sampled means × exact Submit count (estimates).
	submits := float64(rec.calls[opSubmit])
	m["platform.engine_stage_s"] = histMean(b.leaderReg, a.leaderReg, "reprowd_engine_stage_seconds") * submits
	m["platform.engine_flush_wait_s"] = histMean(b.leaderReg, a.leaderReg, "reprowd_engine_flush_wait_seconds") * submits
	m["platform.engine_finalize_s"] = histMean(b.leaderReg, a.leaderReg, "reprowd_engine_finalize_seconds") * submits
	flushes := float64(a.journal.Flushes - b.journal.Flushes)
	m["platform.journal_flushes_n"] = flushes
	m["platform.journal_events_per_flush"] = ratio(float64(a.journal.FlushedEvents-b.journal.FlushedEvents), flushes)
	m["platform.journal_commit_s"] = float64(a.journal.CommitNanos-b.journal.CommitNanos) / 1e9
	m["platform.checkpoints_n"] = float64(a.cuts - b.cuts)
	m["platform.checkpoint_cut_s"] = a.leaderReg["reprowd_snapshot_cut_seconds_sum"] - b.leaderReg["reprowd_snapshot_cut_seconds_sum"]

	// recovery: direct timings of each stage of the leader reopen (medians).
	var jo, er, so, ev []float64
	for _, o := range r.recovers {
		so = append(so, o.storage.Seconds())
		jo = append(jo, o.journal.Seconds())
		er = append(er, o.replay.Seconds())
		ev = append(ev, float64(o.replayed))
	}
	m["storage.open_s"] = metrics.Median(so)
	m["platform.journal_open_s"] = metrics.Median(jo)
	m["platform.engine_replay_s"] = metrics.Median(er)
	m["platform.replay_events_n"] = metrics.Median(ev)
	enc, dec, size := codecProbe(r)
	m["platform.codec_encode_ns_per_event"] = enc
	m["platform.codec_decode_ns_per_event"] = dec
	m["platform.codec_bytes_per_event"] = size

	// storage: exact counters; fsync_s from the (unsampled) histogram sum.
	syncs := float64(a.store.Syncs - b.store.Syncs)
	m["storage.fsyncs_n"] = syncs
	m["storage.fsyncs_per_assignment"] = ratio(syncs, assignments)
	m["storage.fsync_s"] = a.leaderReg["reprowd_storage_fsync_seconds_sum"] - b.leaderReg["reprowd_storage_fsync_seconds_sum"]
	m["storage.sync_elides_n"] = float64(a.store.SyncElides - b.store.SyncElides)
	m["storage.apply_s"] = histMean(b.leaderReg, a.leaderReg, "reprowd_storage_apply_seconds") * float64(a.store.Applies-b.store.Applies)
	m["storage.bytes_per_assignment"] = ratio(float64(a.store.TotalBytes), assignments)

	// sched: every RequestTask is one acquisition attempt.
	m["sched.acquire_n"] = float64(rec.calls[opRequestTask])
	m["sched.acquire_s"] = histMean(b.leaderReg, a.leaderReg, "reprowd_sched_acquire_seconds") * float64(rec.calls[opRequestTask])
	m["sched.no_task_n"] = float64(rec.noTask)
	m["sched.reclaimed_n"] = a.leaderReg["reprowd_sched_reclaimed_leases_total"] - b.leaderReg["reprowd_sched_reclaimed_leases_total"]

	// repl: follower lag sampled every 50 ms; the bootstrap of section (c).
	m["repl.lag_events_p50"] = quantile(w.lag, 0.5)
	m["repl.lag_events_max"] = quantile(w.lag, 1)
	m["repl.streamed_events_n"] = float64(a.streamed - b.streamed)
	for _, f := range r.c.followers {
		m["repl.rebootstraps_n"] += float64(f.node.Stats().Rebootstraps)
	}
	m["repl.rebootstraps_n"] -= float64(r.bootsAtStart)
	m["repl.bootstrap_s"] = metrics.Median(r.boots)

	// core: the context database, through the registry core.Options passes down.
	m["core.open_s"] = metrics.Median(r.coreOpen)
	m["core.ctxdb_applies_n"] = float64(a.ctxStore.Applies - b.ctxStore.Applies)
	m["core.ctxdb_fsyncs_n"] = float64(a.ctxStore.Syncs - b.ctxStore.Syncs)
	m["core.ctxdb_fsync_s"] = a.ctxReg["reprowd_storage_fsync_seconds_sum"] - b.ctxReg["reprowd_storage_fsync_seconds_sum"]

	if jj, ok := r.job.(*joinJob); ok {
		jj.layers(r, a.bytes[opTasks]-b.bytes[opTasks], m)
	}
	m["ops.top_pairs_s"] = r.topPairs.Seconds()

	cpu := a.cpu - b.cpu
	m["proc.cpu_s"] = cpu
	m["proc.cpu_ms_per_assignment"] = ratio(cpu*1e3, assignments)
	m["proc.alloc_mb"] = float64(a.mem.TotalAlloc-b.mem.TotalAlloc) / (1 << 20)
	m["proc.gc_pause_ms"] = float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6
	m["proc.heap_inuse_peak_mb"] = float64(w.heapPeak) / (1 << 20)
	m["trace.spans_n"] = float64(spans)
	m["trace.overhead_ratio"] = ratio(r.timedWall(), untracedWall)

	for name, v := range r.tails() {
		m[name] = v
	}
	return m
}

// layers adds the metrics only a join produces: the distops runtime seen
// through the requester's client, the crowd generator's own cost, and the
// quality models replayed over the collected votes.
func (j *joinJob) layers(r *run, pollBytes int64, m map[string]float64) {
	acc := j.timed
	m["distops.publish_s"] = acc.publishS
	m["distops.add_tasks_n"] = float64(r.workRec.calls[opAddTasks])
	m["distops.poll_rounds_n"] = float64(acc.polls)
	m["distops.poll_bytes"] = float64(pollBytes)
	m["distops.runs_fetch_n"] = float64(r.workRec.calls[opRuns])
	m["distops.useful_poll_ratio"] = ratio(float64(acc.usefulPolls), float64(acc.polls))
	m["distops.collect_tail_s"] = acc.tailS
	m["crowd.self_s"] = acc.drainS - acc.inCallsS
	m["crowd.dropouts_n"] = float64(acc.dropouts)
	m["crowd.returns_n"] = float64(acc.returns)
	// Not in the smoke: its drains are milliseconds long, and one
	// descheduling under go test's parallel packages would trip it.
	if self := m["crowd.self_s"]; self > acc.drainS/10 && !r.cfg.short {
		r.failf("the crowd generator spent %.2f s of its drains' %.2f s outside client calls: it is the bottleneck", self, acc.drainS)
	}

	for _, res := range j.results {
		m["distops.streamed_n"] += float64(res.Streamed)
		items := make([]string, 0, len(res.Votes))
		for item := range res.Votes {
			items = append(items, item)
		}
		sort.Strings(items)
		online := quality.NewOnlineDawidSkene(quality.DawidSkene{}, 64)
		t0 := time.Now()
		for _, item := range items {
			for _, v := range res.Votes[item] {
				online.Observe(item, v)
			}
		}
		t1 := time.Now()
		online.Finalize()
		t2 := time.Now()
		quality.DawidSkene{}.Fit(res.Votes)
		m["quality.online_observe_s"] += t1.Sub(t0).Seconds()
		m["quality.online_finalize_s"] += t2.Sub(t1).Seconds()
		m["quality.batch_fit_s"] += time.Since(t2).Seconds()
	}
}

// codecProbe re-runs the journal codec over the events the leaders' taps
// captured during the run: encode and decode cost per event and the mean
// frame size.
func codecProbe(r *run) (encNs, decNs, bytesPer float64) {
	var evs []platform.Event
	for _, l := range r.c.leaders {
		l.tapMu.Lock()
		evs = append(evs, l.tapped...)
		l.tapMu.Unlock()
	}
	if len(evs) == 0 {
		return 0, 0, 0
	}
	frames := make([][]byte, len(evs))
	total := 0
	t0 := time.Now()
	for i := range evs {
		frames[i] = platform.EncodeEventFrame(nil, &evs[i])
		total += len(frames[i])
	}
	t1 := time.Now()
	for _, f := range frames {
		if _, err := platform.DecodeEventFrame(f); err != nil {
			r.failf("codec probe: a captured event does not decode: %v", err)
			break
		}
	}
	t2 := time.Now()
	n := float64(len(evs))
	return float64(t1.Sub(t0).Nanoseconds()) / n, float64(t2.Sub(t1).Nanoseconds()) / n, float64(total) / n
}

// fsInfo names the filesystem the data directory is on, from
// /proc/self/mountinfo ("unknown" where that does not exist), so a tmpfs
// run is recognisable in the output.
func fsInfo(dir string) string {
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, kind := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// "36 35 98:0 /mnt1 /mnt2 rw,noatime master:1 - ext3 /dev/root rw"
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		fields := strings.Fields(pre)
		if !ok || len(fields) < 5 {
			continue
		}
		mount := fields[4]
		if (dir == mount || strings.HasPrefix(dir, strings.TrimSuffix(mount, "/")+"/")) && len(mount) >= len(best) {
			best, kind = mount, strings.Fields(post)[0]
		}
	}
	return kind
}
