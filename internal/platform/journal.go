package platform

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Op names a journal event type.
type Op string

const (
	// OpProject records a project creation.
	OpProject Op = "project"
	// OpTasks records a batch of newly created tasks.
	OpTasks Op = "tasks"
	// OpRun records one accepted task run.
	OpRun Op = "run"
	// OpBan records a worker ban.
	OpBan Op = "ban"
)

// Event is one entry of the engine's write-ahead log. Events carry the
// full records the engine produced — ids, timestamps, payloads — so
// replay restores byte-identical state without consulting the clock.
type Event struct {
	Op Op `json:"op"`
	// Project is set for OpProject.
	Project *Project `json:"project,omitempty"`
	// ProjectID is set for OpTasks and OpBan.
	ProjectID int64 `json:"project_id,omitempty"`
	// Tasks is set for OpTasks: the newly created tasks, as created
	// (dedup hits are not journaled).
	Tasks []Task `json:"tasks,omitempty"`
	// Run is set for OpRun.
	Run *TaskRun `json:"run,omitempty"`
	// Worker is set for OpBan.
	Worker string `json:"worker,omitempty"`
}

// ErrJournalClosed is returned by appends against a closed journal.
var ErrJournalClosed = errors.New("platform: journal is closed")

// Journal is the platform's write-ahead log, an ordered sequence of
// Events on an internal/storage database. Keys are fixed-width decimal
// sequence numbers, so the store's prefix scan yields events in append
// order.
//
// Appends are group-committed: callers enqueue events under a light mutex
// and block while a single committer goroutine drains the queue into one
// storage batch frame, commits it with one fsync (per the store's sync
// policy), and wakes every waiter in the group. N concurrent appenders
// therefore share one disk flush instead of paying one each — the classic
// WAL group commit — and a crash can still lose at most the unflushed
// tail, never a torn or reordered event: a batch frame applies wholly or
// not at all, and sequence numbers are assigned at flush time in enqueue
// order, so the on-disk journal is always the dense range
// FirstSeq()..Len()-1 (FirstSeq is 0 until a snapshot truncation). An
// event that cannot be encoded or is over the store's value limit fails
// only its own append (it never touches the disk). A failed storage
// flush, in contrast, poisons the journal — events already durable are
// still acked, everything after fails, including all later appends.
// Fail-stop is deliberate (the WAL convention): after a failed write the
// active segment's tail state is unknown, and appending past a
// possibly-torn frame could corrupt the log, so refusing further appends
// is what preserves both the durable prefix and the density invariant.
//
// The store's sync policy decides two things, and the committer is the
// one place that acts on them:
//
//   - When an append is acked. Only SyncAlways waits for the committer,
//     because only SyncAlways promises the event is on disk when the
//     append returns. Under SyncBatch/SyncNever, Enqueue acks at once:
//     the event is encoded and validated at enqueue time, its order is
//     fixed by the queue position, and the flush happens behind the ack.
//   - Whether each group is fsynced. Every policy but SyncNever commits
//     each group with ApplyDurable. Under SyncBatch a crash therefore
//     loses only the groups queued or in flight, and every event acked
//     before a Flush that has returned is on disk. Under SyncNever the
//     OS decides when the bytes reach disk.
//
// Acking at enqueue has one consequence beyond crash loss: if the
// deferred flush itself fails (disk full), the already-acked events are
// lost even though the process survives. The journal's fail-stop
// poisoning makes that state loud — every later append errors — and the
// process should be restarted to re-converge memory with the log;
// callers that cannot accept any acked-but-lost write must run
// SyncAlways.
//
// A snapshot checkpointer (see Checkpointer) may truncate the journal's
// covered prefix: sequence numbers stay dense in [FirstSeq(), Len()), the
// truncated events live on folded into the snapshot record, and replay
// becomes snapshot + tail.
//
// The journal deliberately logs logical platform events rather than
// scheduler internals: leases are ephemeral by design (a restart
// reclaims them all, which is exactly lease-expiry semantics), while
// projects, tasks and runs are the durable record.
type Journal struct {
	db         *storage.DB
	fastAck    bool // ack at enqueue: the store's policy is not SyncAlways
	syncGroups bool // commit each group with ApplyDurable: the policy is not SyncNever

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*Ticket
	next   uint64 // sequence number of the next event to commit
	first  uint64 // events below this were folded into a snapshot (truncated)
	closed bool
	failed error // sticky flush failure; all later appends return it
	epoch  EpochToken
	fenced bool // a newer epoch was proven; appends are rejected

	// taps are the committed-event observers (the checkpointer and
	// replication feeds), keyed by registration id so each can be removed
	// independently. Each receives events in sequence order.
	taps    map[uint64]func(seq uint64, ev Event, size int)
	nextTap uint64

	opts JournalOptions
	wg   sync.WaitGroup

	// Flush counters, readable without j.mu.
	nFlushes    atomic.Uint64
	nFlushed    atomic.Uint64
	maxFlush    atomic.Uint64
	commitNanos atomic.Uint64

	// mCommit distributes per-flush commit latency (nil when metrics are
	// off; the counters above stay authoritative either way and /metrics
	// reads them through closure-backed views).
	mCommit *obs.Histogram

	// mEncode/mDecode distribute per-event codec latency, sampled 1-in-8
	// (codecTick) because a clock read per event would rival the encode
	// itself. Nil when metrics are off.
	mEncode   *obs.Histogram
	mDecode   *obs.Histogram
	codecTick atomic.Uint64
}

// JournalOptions configure a journal. The zero value is usable.
type JournalOptions struct {
	// Metrics, when non-nil, registers the journal's families (commit
	// latency histogram, queue depth, flush counters). Nil disables
	// instrumentation at zero hot-path cost.
	Metrics *obs.Registry
}

const (
	// maxBatch caps how many events one flush group carries.
	maxBatch = 1024
	// maxBatchBytes caps the encoded payload of one storage batch frame;
	// a group exceeding it is split across frames (still in order).
	maxBatchBytes = 8 << 20
)

// Ticket is a pending append: the handle an enqueued event's producer
// waits on for the committer's durability acknowledgement. Under a
// non-durable sync policy the ticket is acked at enqueue (fastAck) and
// the committer never touches its caller-visible fields again.
type Ticket struct {
	ev      Event
	buf     []byte  // pre-encoded payload (fast-ack path); nil means the committer encodes
	pbuf    *[]byte // pooled buffer backing buf; returned by flush once the value is staged
	size    int     // encoded size, set when known (observer accounting)
	fastAck bool    // acked at enqueue; done already closed, err fixed at nil
	barrier bool    // writes nothing; acked once everything queued before it has flushed
	done    chan struct{}
	err     error
	skipped bool // per-event failure (encode/size): nothing written, journal stays healthy
	flushed bool // event is durably committed
}

// Wait blocks until the ticket's event is committed (per the store's sync
// policy) and returns the flush outcome. It must not be called while
// holding locks the committer's waiters need.
func (t *Ticket) Wait() error {
	<-t.done
	return t.err
}

// Done exposes the ticket's completion channel for non-blocking acked
// checks (closed once the flush outcome is decided).
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Err returns the flush outcome. Only valid after Done is closed.
func (t *Ticket) Err() error { return t.err }

// journalPrefix is the key space the journal owns in the store. The
// fixed-width decimal sequence number makes lexicographic key order equal
// append order.
const journalPrefix = "j/"

// journalTruncKey records the first live sequence number after a snapshot
// truncation ("jm/" deliberately does not share the "j/" event prefix, so
// scans over events never see it).
const journalTruncKey = "jm/trunc"

// journalKey returns the storage key of event seq.
func journalKey(seq uint64) []byte {
	return []byte(fmt.Sprintf("%s%016d", journalPrefix, seq))
}

// parseJournalKey extracts the sequence number from an event key.
func parseJournalKey(key string) (uint64, bool) {
	if len(key) <= len(journalPrefix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(key[len(journalPrefix):], 10, 64)
	return seq, err == nil
}

// OpenJournal binds a journal to db with default options, finding the
// append position after any existing events. The database may hold other
// keys; the journal owns the "j/" prefix.
func OpenJournal(db *storage.DB) (*Journal, error) {
	return OpenJournalOpts(db, JournalOptions{})
}

// OpenJournalOpts is OpenJournal with explicit options. It
// starts the committer goroutine; Close stops it after draining.
func OpenJournalOpts(db *storage.DB, opts JournalOptions) (*Journal, error) {
	next, first, err := journalNext(db)
	if err != nil {
		return nil, fmt.Errorf("platform: journal open: %w", err)
	}
	tok, err := JournalEpoch(db)
	if err != nil {
		return nil, fmt.Errorf("platform: journal open: %w", err)
	}
	j := &Journal{
		db:         db,
		fastAck:    db.Policy() != storage.SyncAlways,
		syncGroups: db.Policy() != storage.SyncNever,
		next:       next,
		first:      first,
		epoch:      tok,
		opts:       opts,
	}
	j.cond = sync.NewCond(&j.mu)
	if reg := j.opts.Metrics; reg != nil {
		j.mCommit = reg.Histogram("reprowd_journal_commit_seconds",
			"Wall time of one group-commit flush (storage apply + fsync per the sync policy).", nil)
		j.mEncode = reg.Histogram("reprowd_codec_encode_seconds",
			"Per-event journal value encode latency (1-in-8 sampled).", nil)
		j.mDecode = reg.Histogram("reprowd_codec_decode_seconds",
			"Per-event journal value decode latency during replay (1-in-8 sampled).", nil)
		// Closure-backed views over the same atomics /api/stats reports —
		// one source of truth. On follower promotion a fresh journal
		// re-registers over the old one's closures (last wins).
		reg.CounterFunc("reprowd_journal_flushes_total",
			"Storage batch frames committed by the journal.", j.nFlushes.Load)
		reg.CounterFunc("reprowd_journal_flushed_events_total",
			"Events committed across all flush frames.", j.nFlushed.Load)
		reg.CounterFunc("reprowd_journal_committed_events_total",
			"Journal length: events ever committed (truncated ones included).", j.Len)
		reg.GaugeFunc("reprowd_journal_queue_depth",
			"Events waiting for the committer right now.", func() float64 {
				j.mu.Lock()
				defer j.mu.Unlock()
				return float64(len(j.queue))
			})
	}
	j.wg.Add(1)
	go j.run()
	return j, nil
}

// journalNext finds the append position and the truncation base. Sequence
// numbers are dense from the truncation point (flush-time assignment and
// the sticky-failure rule guarantee no holes, and truncation only removes
// a prefix), so key presence is monotone in seq above the base: gallop to
// an absent sequence, then binary-search the boundary — O(log n) point
// lookups instead of a full-prefix scan over every live key.
func journalNext(db *storage.DB) (next, first uint64, err error) {
	if val, ok, gerr := db.Get([]byte(journalTruncKey)); gerr != nil {
		return 0, 0, gerr
	} else if ok {
		n, perr := strconv.ParseUint(string(val), 10, 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("platform: corrupt journal truncation record %q: %w", val, perr)
		}
		first = n
	}
	has := func(seq uint64) (bool, error) {
		return db.Has(journalKey(seq))
	}
	ok, err := has(first)
	if err != nil || !ok {
		return first, first, err
	}
	lo, off := first, uint64(1)
	for {
		ok, err := has(first + off)
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			break
		}
		lo, off = first+off, off*2
	}
	hi := first + off
	// key[lo] present, key[hi] absent; bisect the boundary.
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		ok, err := has(mid)
		if err != nil {
			return 0, 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + 1, first, nil
}

// Len returns the number of events ever committed to the journal
// (truncated events included — sequence numbers never restart).
func (j *Journal) Len() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// FirstSeq returns the first sequence number still present on disk.
// Events below it were folded into a snapshot by TruncateBefore.
func (j *Journal) FirstSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.first
}

// Epoch returns the fencing token this journal's history belongs to,
// loaded from the store's meta record at open (zero for stores that were
// never promoted into or fenced).
func (j *Journal) Epoch() EpochToken {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch
}

// Fenced reports whether Fence has poisoned the append path.
func (j *Journal) Fenced() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fenced
}

// Fence marks the journal deposed by tok: every later Enqueue/Append
// returns ErrFenced, and the (greater of the two) token is durably
// recorded so a restart comes back fenced too — the journal-level half of
// split-brain protection; a deposed leader's history can never grow past
// the point its successor's was seeded from. Reads, Flush, and Close keep
// working: fencing stops new history, it does not abandon the old.
func (j *Journal) Fence(tok EpochToken) error {
	j.mu.Lock()
	if j.fenced && !j.epoch.Less(tok) {
		j.mu.Unlock()
		return nil
	}
	if j.epoch.Less(tok) {
		j.epoch = tok
	}
	j.fenced = true
	tok = j.epoch
	j.mu.Unlock()
	// Persist outside the lock; the append path already rejects, so a
	// crash between the two leaves nothing inconsistent (the write stamp
	// or the elector re-fences on the next contact).
	return SetJournalEpoch(j.db, tok)
}

// newTicket builds the ticket for ev, pre-encoding and immediately acking
// it on the fast path (any policy but SyncAlways): the sync policy already
// tolerates losing an acked tail on crash, so there is nothing for the
// caller to wait on — the encode/size validation that could fail the
// event happens here instead, and the committer flushes behind the ack.
func (j *Journal) newTicket(ev Event) (*Ticket, error) {
	t := &Ticket{ev: ev, done: make(chan struct{})}
	if j.fastAck {
		buf, pbuf, err := j.encodeEvent(&t.ev)
		if err != nil {
			return nil, err
		}
		t.buf, t.pbuf, t.size, t.fastAck = buf, pbuf, len(buf), true
	}
	return t, nil
}

// sampleCodec decides whether this encode/decode gets timed: 1-in-8 when
// instrumented, never otherwise (the clock read would rival the work).
func (j *Journal) sampleCodec() bool {
	return j.mEncode != nil && j.codecTick.Add(1)&7 == 0
}

// encodeEvent encodes ev as one journal value, a binary event frame (see
// codec.go). The returned bytes are backed by a pooled buffer, also
// returned; the caller releases it with putFrameBuf once the value has
// been copied onward (storage batches copy on Put).
func (j *Journal) encodeEvent(ev *Event) ([]byte, *[]byte, error) {
	var start time.Time
	timed := j.sampleCodec()
	if timed {
		start = obs.Now()
	}
	p := getFrameBuf()
	*p = appendEventFrame(*p, ev)
	buf := *p
	if timed {
		j.mEncode.Observe(obs.Since(start).Seconds())
	}
	if len(buf) > storage.MaxValueLen {
		putFrameBuf(p)
		return nil, nil, fmt.Errorf("platform: journal encode: %w", storage.ErrValTooLarge)
	}
	return buf, p, nil
}

// Enqueue hands ev to the committer and returns a Ticket to wait on. It
// never blocks on the disk, so callers may enqueue while holding their own
// state lock (which fixes the journal order to their commit order) and
// wait after releasing it. Under SyncBatch/SyncNever the ticket comes
// back already acked (Wait returns nil immediately): durability at ack
// was never promised, so the caller does not pay the committer round
// trip (Flush is the fence that waits for it).
func (j *Journal) Enqueue(ev Event) (*Ticket, error) {
	t, err := j.newTicket(ev)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil, ErrJournalClosed
	}
	if j.fenced {
		j.mu.Unlock()
		return nil, fmt.Errorf("platform: journal epoch %s: %w", j.Epoch(), ErrFenced)
	}
	if j.failed != nil {
		err := j.failed
		j.mu.Unlock()
		return nil, fmt.Errorf("platform: journal failed: %w", err)
	}
	j.queue = append(j.queue, t)
	j.cond.Signal()
	j.mu.Unlock()
	if t.fastAck {
		close(t.done)
	}
	return t, nil
}

// Append writes ev as the next journal event, returning once the committer
// has flushed it (group-committed with whatever else was in flight).
func (j *Journal) Append(ev Event) error {
	t, err := j.Enqueue(ev)
	if err != nil {
		return err
	}
	return t.Wait()
}

// AppendBatch writes evs as consecutive journal events and waits for all
// of them; the committer assigns them contiguous sequence numbers. On
// error a prefix of evs may have committed (exactly as with sequential
// Append calls — a flush failure poisons the journal, so no later event
// can land after a gap).
func (j *Journal) AppendBatch(evs []Event) error {
	if len(evs) == 0 {
		return nil
	}
	tickets := make([]*Ticket, len(evs))
	for i, ev := range evs {
		t, err := j.newTicket(ev)
		if err != nil {
			return err
		}
		tickets[i] = t
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrJournalClosed
	}
	if j.fenced {
		j.mu.Unlock()
		return fmt.Errorf("platform: journal epoch %s: %w", j.Epoch(), ErrFenced)
	}
	if j.failed != nil {
		err := j.failed
		j.mu.Unlock()
		return fmt.Errorf("platform: journal failed: %w", err)
	}
	for _, t := range tickets {
		j.queue = append(j.queue, t)
	}
	j.cond.Signal()
	j.mu.Unlock()
	for _, t := range tickets {
		if t.fastAck {
			close(t.done)
		}
	}
	// Flushes complete in order, so waiting each in turn costs nothing
	// extra; the first error is the batch's outcome.
	for _, t := range tickets {
		if err := t.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// barrier enqueues a write-nothing ticket that acks once every event
// queued before it has been flushed (and observed). Fast-acked appends
// make the queue run ahead of the disk; the checkpointer uses a barrier
// to cut snapshots at the current end of the committed log rather than
// wherever the committer happened to be. A closed or poisoned journal
// returns an already-acked ticket carrying the journal's state as err.
func (j *Journal) barrier() *Ticket {
	t := &Ticket{barrier: true, done: make(chan struct{})}
	j.mu.Lock()
	if j.closed || j.failed != nil {
		if j.closed {
			t.err = ErrJournalClosed
		} else {
			t.err = j.failed
		}
		j.mu.Unlock()
		close(t.done)
		return t
	}
	j.queue = append(j.queue, t)
	j.cond.Signal()
	j.mu.Unlock()
	return t
}

// Flush blocks until every append acknowledged before the call is
// committed: the journal's length and its observer taps reflect it, and
// under SyncAlways/SyncBatch the events are on disk. Fast-acked appends
// (SyncBatch/SyncNever) make acknowledgement run ahead of the committer;
// Flush is the fence that closes the gap — the simulation harness uses
// it to define "quiesced". Returns the journal's terminal error when
// closed or poisoned (the drained prefix is still committed).
func (j *Journal) Flush() error { return j.barrier().Wait() }

// run is the committer loop: wait for a non-empty queue, take up to
// maxBatch events, commit them as one storage batch frame, wake the
// group, repeat. It never waits for a group to fill: under load, the
// appends that queue up behind one fsync form the next group.
func (j *Journal) run() {
	defer j.wg.Done()
	for {
		j.mu.Lock()
		for len(j.queue) == 0 && !j.closed {
			j.cond.Wait()
		}
		if len(j.queue) == 0 && j.closed {
			j.mu.Unlock()
			return
		}
		n := min(len(j.queue), maxBatch)
		group := j.queue[:n:n]
		j.queue = j.queue[n:]
		fail := j.failed
		base := j.next
		j.mu.Unlock()

		if fail == nil {
			var committed uint64
			committed, fail = j.flush(base, group)
			j.mu.Lock()
			// The committed events are durable whatever happened after
			// them: advance past them even on error, and ack their
			// tickets — memory must commit exactly what replay will
			// see. Only a storage failure poisons; per-event skips
			// (already carrying their own err) wrote nothing.
			j.next = base + committed
			if fail != nil {
				j.failed = fail
			}
			// Capture the observers after the flush, not before: an
			// observer that registered while this flush was blocked on
			// the store (its seed scan holds the store's read lock)
			// must still receive these events — they were not yet on
			// disk when its scan closed.
			observers := make([]func(uint64, Event, int), 0, len(j.taps))
			for _, tap := range j.taps {
				observers = append(observers, tap)
			}
			j.mu.Unlock()
			for _, observer := range observers {
				// Deliver the committed events in sequence order — before
				// waking the waiters, so anything a caller has seen acked
				// is already staged with the observer. Flushed tickets are
				// exactly the events that landed, contiguously from base.
				seq := base
				for _, t := range group {
					if t.flushed {
						observer(seq, t.ev, t.size)
						seq++
					}
				}
			}
			for _, t := range group {
				if t.fastAck {
					// Acked at enqueue; never touch caller-visible state.
					continue
				}
				if !t.flushed && !t.skipped {
					t.err = fail
				}
				close(t.done)
			}
			continue
		}
		for _, t := range group {
			if t.fastAck {
				continue
			}
			t.err = fail
			close(t.done)
		}
	}
}

// flush commits group as one batch frame (split only if it exceeds the
// byte cap), assigning sequence numbers base, base+1, ... in enqueue
// order and marking each ticket's fate. An event that cannot be encoded
// or is too large for the store fails only its own ticket (skipped —
// nothing reached the disk, so the journal stays healthy and dense). It
// returns how many events committed; a storage error leaves everything
// after the last whole sub-batch off disk, and the caller poisons the
// journal.
func (j *Journal) flush(base uint64, group []*Ticket) (uint64, error) {
	start := obs.Now()
	defer func() {
		d := obs.Since(start)
		j.commitNanos.Add(uint64(d))
		j.mCommit.Observe(d.Seconds())
	}()

	batch := storage.NewBatch()
	var pending []*Ticket // tickets in the current sub-batch
	var committed uint64
	bytes := 0
	commit := func() error {
		if batch.Len() == 0 {
			return nil
		}
		var err error
		if j.syncGroups {
			err = j.db.ApplyDurable(batch)
		} else {
			err = j.db.Apply(batch)
		}
		if err != nil {
			return fmt.Errorf("platform: journal append: %w", err)
		}
		j.nFlushes.Add(1)
		j.nFlushed.Add(uint64(batch.Len()))
		if n := uint64(batch.Len()); n > j.maxFlush.Load() {
			j.maxFlush.Store(n)
		}
		committed += uint64(batch.Len())
		for _, t := range pending {
			t.flushed = true
		}
		pending = pending[:0]
		batch.Reset()
		bytes = 0
		return nil
	}

	seq := base
	for _, t := range group {
		if t.barrier {
			// Writes nothing and takes no sequence number; its ack (in
			// queue position) is the ordering guarantee.
			continue
		}
		buf := t.buf // fast-ack tickets arrive pre-encoded and pre-validated
		if buf == nil {
			var err error
			buf, t.pbuf, err = j.encodeEvent(&t.ev)
			if err != nil {
				// Per-event failure: the event never touches the store, so
				// it simply doesn't get a sequence number.
				t.skipped = true
				t.err = err
				continue
			}
			t.size = len(buf)
		}
		if bytes > 0 && bytes+len(buf) > maxBatchBytes {
			if err := commit(); err != nil {
				return committed, err
			}
		}
		batch.Put(journalKey(seq), buf)
		if t.pbuf != nil {
			// Put copied the value into the batch payload; the pooled
			// encode buffer is free as soon as the event is staged.
			putFrameBuf(t.pbuf)
			t.buf, t.pbuf = nil, nil
		}
		bytes += len(buf)
		seq++
		pending = append(pending, t)
	}
	if err := commit(); err != nil {
		return committed, err
	}
	return committed, nil
}

// Close stops the committer after it drains the queue. Further appends
// return ErrJournalClosed; Close does not close the underlying store.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.cond.Broadcast()
	j.mu.Unlock()
	j.wg.Wait()
	return nil
}

// AddTap registers a committed-event observer — the checkpointer's and
// the replication feed's hook — and returns a function that removes it.
// fn receives every event committed after registration — sequence number,
// decoded event, encoded size — in sequence order, from the committer
// goroutine after each flush. fn must be cheap and must never call back
// into the append path. Events committed before registration are read
// from disk; a reader that taps first and scans second can see an
// overlap, never a gap, and dedupes by sequence number.
func (j *Journal) AddTap(fn func(seq uint64, ev Event, size int)) (cancel func()) {
	j.mu.Lock()
	if j.taps == nil {
		j.taps = make(map[uint64]func(uint64, Event, int))
	}
	id := j.nextTap
	j.nextTap++
	j.taps[id] = fn
	j.mu.Unlock()
	return func() {
		j.mu.Lock()
		delete(j.taps, id)
		j.mu.Unlock()
	}
}

// EventsFrom invokes fn on every committed event with sequence >= start in
// append order, exposing each event's sequence number and encoded size —
// the replication feed's catch-up read. Events below FirstSeq have been
// folded into a snapshot and are not visible here; callers needing them
// must bootstrap from the snapshot record instead. The underlying scan
// holds the store's read lock, so fn must not block on slow consumers —
// collect and ship after returning.
func (j *Journal) EventsFrom(start uint64, fn func(seq uint64, ev Event, size int) error) error {
	return j.replayFrom(start, false, fn)
}

// SeedJournalCut prepares an empty store to host a journal whose history
// begins at seq: the truncation record is written so OpenJournal starts
// appending there, exactly as if events [0, seq) had been committed and
// folded into a snapshot. This is the promotion path's continuity hook —
// a follower promoted at applied sequence S writes its state as a
// snapshot at S and seeds its fresh journal at S, so sequence numbers
// keep their meaning across the leadership change.
func SeedJournalCut(db *storage.DB, seq uint64) error {
	if err := db.Put([]byte(journalTruncKey), []byte(strconv.FormatUint(seq, 10))); err != nil {
		return fmt.Errorf("platform: seed journal cut: %w", err)
	}
	return nil
}

// TruncateBefore drops every journal event below seq from the store —
// the snapshot checkpointer's folding step, called only after a snapshot
// covering [0, seq) is durably committed. The truncation point is
// recorded first (so a reopened journal finds its append position without
// probing from zero), then the covered keys are range-deleted; a crash
// anywhere in between is safe because recovery replays from the snapshot
// manifest's cut point, skipping any straggler keys below it. Returns the
// number of events removed and the live bytes they occupied.
func (j *Journal) TruncateBefore(seq uint64) (int, int64, error) {
	j.mu.Lock()
	if seq > j.next {
		seq = j.next
	}
	first := j.first
	j.mu.Unlock()
	if seq <= first {
		return 0, 0, nil
	}
	if err := j.db.Put([]byte(journalTruncKey), []byte(strconv.FormatUint(seq, 10))); err != nil {
		return 0, 0, fmt.Errorf("platform: journal truncate record: %w", err)
	}
	n, bytes, err := j.db.DeleteRange(string(journalKey(0)), string(journalKey(seq)))
	if err != nil {
		return n, bytes, fmt.Errorf("platform: journal truncate: %w", err)
	}
	j.mu.Lock()
	if seq > j.first {
		j.first = seq
	}
	j.mu.Unlock()
	return n, bytes, nil
}

// JournalStats is a point-in-time summary of the group-commit pipeline.
type JournalStats struct {
	// Len is the number of committed events.
	Len uint64 `json:"len"`
	// TruncatedThrough is the first sequence number still on disk; events
	// below it were folded into a snapshot.
	TruncatedThrough uint64 `json:"truncated_through"`
	// Queued is how many events are waiting for the committer right now.
	Queued int `json:"queued"`
	// Flushes counts storage batch frames committed.
	Flushes uint64 `json:"flushes"`
	// FlushedEvents counts events across those frames; FlushedEvents /
	// Flushes is the achieved group size (and, under -sync always, the
	// fsync amortization factor).
	FlushedEvents uint64 `json:"flushed_events"`
	// MaxFlush is the largest single flush group seen.
	MaxFlush uint64 `json:"max_flush"`
	// CommitNanos is cumulative wall time spent applying+syncing flushes;
	// CommitNanos / Flushes is the mean commit latency.
	CommitNanos uint64 `json:"commit_nanos"`
}

// Stats returns the journal's flush counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	n, first, q := j.next, j.first, len(j.queue)
	j.mu.Unlock()
	return JournalStats{
		Len:              n,
		TruncatedThrough: first,
		Queued:           q,
		Flushes:          j.nFlushes.Load(),
		FlushedEvents:    j.nFlushed.Load(),
		MaxFlush:         j.maxFlush.Load(),
		CommitNanos:      j.commitNanos.Load(),
	}
}

// StorageStats returns the backing store's counters (fsyncs, batch
// applies, sizes) for the stats endpoint.
func (j *Journal) StorageStats() storage.Stats { return j.db.Stats() }

// Metrics returns the registry the journal was opened with (nil when
// uninstrumented) — the hook subsystems built on the journal (snapshot
// checkpointer, replication feed) use to register their own families.
func (j *Journal) Metrics() *obs.Registry { return j.opts.Metrics }

// Replay invokes fn on every journal event in append order (the store
// scans the journal prefix in key order, which the fixed-width sequence
// keys make append order).
func (j *Journal) Replay(fn func(Event) error) error {
	return j.ReplayFrom(0, fn)
}

// ReplayFrom invokes fn on every journal event with sequence >= start, in
// append order. Recovery from a snapshot cut at seq S replays the tail
// with start = S; events below start are skipped even if still on disk
// (a crash between the snapshot commit and the truncation leaves them
// behind), so nothing the snapshot already covers is applied twice. The
// first event replayed must be start itself: a missing event at start is
// lost history, and recovery fails with ErrEventCorrupt rather than
// resume past it.
func (j *Journal) ReplayFrom(start uint64, fn func(Event) error) error {
	return j.replayFrom(start, true, func(_ uint64, ev Event, _ int) error { return fn(ev) })
}

// replayFrom is ReplayFrom with the sequence number and encoded size of
// each event exposed (the checkpointer's seed path accounts both). exact
// requires the first delivered sequence to be start, as recovery does;
// EventsFrom passes false (see below).
//
// Values are delivered through the store's shared-buffer scan — one
// decode buffer reused across all events instead of two allocations per
// event — which is safe because the decoder copies everything out
// (strings via string()). Every value must be a binary event frame; one
// that does not start with the codec magic, or fails its checksum, is
// corruption and fails recovery with a typed error rather than applying
// a partial or misread event.
func (j *Journal) replayFrom(start uint64, exact bool, fn func(seq uint64, ev Event, size int) error) error {
	var ferr error
	// Sequence numbers at or above start must be dense (flush-time
	// assignment and the sticky-failure rule guarantee no holes were ever
	// written). A gap means the store lost a committed event — recovery
	// must fail typed rather than silently apply partial history. With
	// exact, the first live key must be start itself. Without it, a
	// leading gap between start and the first live key is legal: it is a
	// truncation racing the replication feed's FirstSeq read, and the
	// feed detects it by the first delivered sequence.
	next, haveNext := start, exact
	err := j.db.ScanShared(journalPrefix, func(key string, val []byte) bool {
		seq, ok := parseJournalKey(key)
		if !ok {
			ferr = fmt.Errorf("platform: malformed journal key %q", key)
			return false
		}
		if seq < start {
			return true
		}
		if haveNext && seq != next {
			ferr = fmt.Errorf("platform: journal gap: got seq %d, want %d: %w", seq, next, ErrEventCorrupt)
			return false
		}
		next, haveNext = seq+1, true
		var ev Event
		if j.sampleCodec() {
			t0 := obs.Now()
			ev, ferr = decodeEventValue(val)
			j.mDecode.Observe(obs.Since(t0).Seconds())
		} else {
			ev, ferr = decodeEventValue(val)
		}
		if ferr != nil {
			ferr = fmt.Errorf("platform: journal decode %s: %w", key, ferr)
			return false
		}
		if ferr = fn(seq, ev, len(val)); ferr != nil {
			return false
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("platform: journal scan: %w", err)
	}
	return ferr
}
