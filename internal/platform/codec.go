package platform

// Binary event codec: the wire and journal encoding for Event.
//
// Every internal hot path used to pay encoding/json both ways — journal
// append + replay, replication stream + follower apply, snapshot
// transfer. This file replaces all of them with one hand-rolled,
// CRC-framed binary codec, keeping JSON only on the public REST surface.
// Because leader and follower now share this single encoder, the
// byte-identical replay invariant holds by construction: there is no
// second marshaller to drift.
//
// Frame layout (little-endian):
//
//	+-------+---------+------+--------+--------------------+---------+
//	| magic | version | kind | crc32c | uvarint payloadLen | payload |
//	| 1 B   | 1 B     | 1 B  | 4 B    | 1-10 B             |         |
//	+-------+---------+------+--------+--------------------+---------+
//
// The CRC (Castagnoli, matching internal/storage's frames) covers the
// payload only; the fixed header is validated structurally. A value
// that does not begin with the magic byte 0xB1 is corruption
// (ErrEventCorrupt) — there is one format and no second decoder. The
// version byte names the payload schema; a frame with an unknown version
// fails decoding with ErrFrameVersion rather than being misread, so a
// future schema bump is a refusal, never silent corruption.
//
// Frame kinds:
//
//	frameEvent    — one journal Event (the journal's value encoding)
//	frameStream   — uvarint sequence number ++ Event payload (the
//	                replication stream's unit; see internal/repl)
//	frameSnapshot — opaque snapshot bytes, CRC-wrapped for transfer
//
// Payload schema, version 1. Integers are varints (zigzag for signed),
// strings are uvarint length + bytes, floats are 8-byte IEEE 754 bits,
// and times are a presence flag + unix seconds + nanoseconds + UTC
// offset. Decoding a time rebuilds exactly what parsing the RFC 3339
// JSON form would have: offset 0 is UTC, anything else a fixed zone —
// so a decoded event renders the same JSON the original did
// (TestEventCodecJSONEquivalent). Maps keep the nil/empty distinction
// (JSON null vs {}) and encode entries in sorted key order so equal
// events encode to equal bytes.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

const (
	// frameMagic begins every binary frame; a value that starts with
	// anything else is rejected as corrupt.
	frameMagic byte = 0xB1
	// frameVersion is the payload schema version this build writes.
	frameVersion byte = 1

	frameEvent    byte = 1
	frameStream   byte = 2
	frameSnapshot byte = 3

	// frameHeaderLen is the fixed part of the header (magic + version +
	// kind + crc), before the uvarint payload length.
	frameHeaderLen = 7

	// maxFramePayload bounds a decoded frame's payload. It matches the
	// storage layer's value cap: nothing larger can have been journaled.
	maxFramePayload = 1 << 28
)

// FrameContentType is the media type of the replication endpoints'
// responses: binary frames, the only wire (see internal/repl).
const FrameContentType = "application/x-reprowd-frame"

var (
	// ErrEventCorrupt reports a binary event frame that failed structural
	// or checksum validation. Journal recovery surfaces it (wrapped with
	// the offending key) instead of applying partial state.
	ErrEventCorrupt = errors.New("platform: corrupt event frame")
	// ErrFrameVersion reports a frame written by a newer, unknown codec
	// version. Distinct from corruption: the bytes are fine, this build
	// just cannot read them.
	ErrFrameVersion = errors.New("platform: unsupported event frame version")
)

var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// frameBufPool recycles encode buffers across appends: the group-commit
// flush copies every value into its batch frame immediately, so an
// encode buffer is released the moment the event is staged and the
// steady-state append path allocates nothing per event.
var frameBufPool = sync.Pool{New: func() any { return new([]byte) }}

// getFrameBuf leases a pooled buffer (length zero, whatever capacity the
// pool has grown to).
func getFrameBuf() *[]byte {
	p := frameBufPool.Get().(*[]byte)
	*p = (*p)[:0]
	return p
}

// putFrameBuf returns a leased buffer to the pool. The caller must not
// touch slices aliasing it afterwards.
func putFrameBuf(p *[]byte) { frameBufPool.Put(p) }

// --- frame assembly ---------------------------------------------------

// appendFrameHeader appends the header for a payload of the given length
// and CRC.
func appendFrameHeader(dst []byte, kind byte, crc uint32, payloadLen int) []byte {
	dst = append(dst, frameMagic, frameVersion, kind)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return binary.AppendUvarint(dst, uint64(payloadLen))
}

// finishFrame wraps the payload occupying buf[start:] into a frame
// in place: the payload is encoded first, then the header is inserted
// before it (one copy of the payload, no second buffer).
func finishFrame(buf []byte, start int, kind byte) []byte {
	payload := buf[start:]
	crc := crc32.Checksum(payload, frameCRC)
	head := make([]byte, 0, frameHeaderLen+binary.MaxVarintLen64)
	head = appendFrameHeader(head, kind, crc, len(payload))
	// Shift the payload up by len(head) and lay the header down.
	buf = append(buf, head...) // grow; may move the backing array
	payload = buf[start : len(buf)-len(head)]
	copy(buf[start+len(head):], payload)
	copy(buf[start:], head)
	return buf
}

// splitFrame validates one complete frame occupying data exactly and
// returns its kind and payload (aliasing data).
func splitFrame(data []byte) (kind byte, payload []byte, err error) {
	if len(data) < frameHeaderLen {
		return 0, nil, fmt.Errorf("%w: short frame (%d bytes)", ErrEventCorrupt, len(data))
	}
	if data[0] != frameMagic {
		return 0, nil, fmt.Errorf("%w: bad magic 0x%02x", ErrEventCorrupt, data[0])
	}
	if data[1] != frameVersion {
		return 0, nil, fmt.Errorf("%w: version %d (this build reads %d)", ErrFrameVersion, data[1], frameVersion)
	}
	kind = data[2]
	crc := binary.LittleEndian.Uint32(data[3:7])
	plen, n := binary.Uvarint(data[frameHeaderLen:])
	if n <= 0 || plen > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: bad payload length", ErrEventCorrupt)
	}
	payload = data[frameHeaderLen+n:]
	if uint64(len(payload)) != plen {
		return 0, nil, fmt.Errorf("%w: payload length %d, frame carries %d", ErrEventCorrupt, plen, len(payload))
	}
	if crc32.Checksum(payload, frameCRC) != crc {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrEventCorrupt)
	}
	return kind, payload, nil
}

// --- primitive encoders -----------------------------------------------

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendTime encodes t so decoding reproduces exactly what parsing its
// RFC 3339 JSON rendering would: wall seconds + nanoseconds + UTC offset
// (the zone name never survives JSON either). The leading flag keeps the
// zero time distinguishable from 1970-01-01T00:00:00Z.
func appendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	_, offset := t.Zone()
	dst = append(dst, 1)
	dst = binary.AppendVarint(dst, t.Unix())
	dst = binary.AppendUvarint(dst, uint64(t.Nanosecond()))
	return binary.AppendVarint(dst, int64(offset))
}

// appendPayloadMap encodes a task payload, keeping the nil/empty
// distinction (flag byte) and sorting keys so encoding is deterministic.
func appendPayloadMap(dst []byte, m map[string]string) []byte {
	if m == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	if len(m) == 0 {
		return dst
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = appendString(dst, m[k])
	}
	return dst
}

func appendProject(dst []byte, p *Project) []byte {
	dst = binary.AppendVarint(dst, p.ID)
	dst = appendString(dst, p.Name)
	dst = appendString(dst, p.Presenter)
	dst = binary.AppendVarint(dst, int64(p.Redundancy))
	dst = appendString(dst, string(p.Strategy))
	return appendTime(dst, p.Created)
}

func appendTask(dst []byte, t *Task) []byte {
	dst = binary.AppendVarint(dst, t.ID)
	dst = binary.AppendVarint(dst, t.ProjectID)
	dst = appendString(dst, t.ExternalID)
	dst = appendPayloadMap(dst, t.Payload)
	dst = binary.AppendVarint(dst, int64(t.Redundancy))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.Priority))
	dst = appendString(dst, string(t.State))
	dst = binary.AppendVarint(dst, int64(t.NumAnswers))
	dst = appendTime(dst, t.Created)
	return appendTime(dst, t.Completed)
}

func appendRun(dst []byte, r *TaskRun) []byte {
	dst = binary.AppendVarint(dst, r.ID)
	dst = binary.AppendVarint(dst, r.TaskID)
	dst = binary.AppendVarint(dst, r.ProjectID)
	dst = appendString(dst, r.WorkerID)
	dst = appendString(dst, r.Answer)
	dst = appendTime(dst, r.Assigned)
	return appendTime(dst, r.Finished)
}

// appendEventPayload encodes ev's payload (no frame header).
func appendEventPayload(dst []byte, ev *Event) []byte {
	dst = appendString(dst, string(ev.Op))
	if ev.Project != nil {
		dst = append(dst, 1)
		dst = appendProject(dst, ev.Project)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendVarint(dst, ev.ProjectID)
	dst = binary.AppendUvarint(dst, uint64(len(ev.Tasks)))
	for i := range ev.Tasks {
		dst = appendTask(dst, &ev.Tasks[i])
	}
	if ev.Run != nil {
		dst = append(dst, 1)
		dst = appendRun(dst, ev.Run)
	} else {
		dst = append(dst, 0)
	}
	return appendString(dst, ev.Worker)
}

// appendEventFrame appends ev as a complete frameEvent to dst — the
// journal's value encoding.
func appendEventFrame(dst []byte, ev *Event) []byte {
	start := len(dst)
	dst = appendEventPayload(dst, ev)
	return finishFrame(dst, start, frameEvent)
}

// AppendStreamFrame appends (seq, ev) as a complete frameStream to dst —
// the replication stream's unit.
func AppendStreamFrame(dst []byte, seq uint64, ev *Event) []byte {
	start := len(dst)
	dst = binary.AppendUvarint(dst, seq)
	dst = appendEventPayload(dst, ev)
	return finishFrame(dst, start, frameStream)
}

// AppendSnapshotFrame wraps opaque snapshot bytes in a frameSnapshot —
// CRC-protected transfer of a snapshot record.
func AppendSnapshotFrame(dst []byte, data []byte) []byte {
	start := len(dst)
	dst = append(dst, data...)
	return finishFrame(dst, start, frameSnapshot)
}

// --- decoding ----------------------------------------------------------

// codecReader is a cursor over a frame payload with a sticky error: the
// first malformed field poisons every later read, so decoders check err
// once at the end.
type codecReader struct {
	b   []byte
	err error
}

func (r *codecReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s", ErrEventCorrupt, what)
	}
}

func (r *codecReader) byteVal(what string) byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail(what)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *codecReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *codecReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// str decodes a string, copying out of the frame buffer (replay hands
// decoders a scratch buffer reused across events, so nothing decoded may
// alias it).
func (r *codecReader) str(what string) string {
	n := r.uvarint(what)
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail(what)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *codecReader) f64(what string) float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[:8]))
	r.b = r.b[8:]
	return v
}

func (r *codecReader) timeVal(what string) time.Time {
	flag := r.byteVal(what)
	if r.err != nil || flag == 0 {
		return time.Time{}
	}
	sec := r.varint(what)
	nsec := r.uvarint(what)
	offset := r.varint(what)
	if r.err != nil {
		return time.Time{}
	}
	t := time.Unix(sec, int64(nsec))
	if offset == 0 {
		return t.UTC()
	}
	return t.In(time.FixedZone("", int(offset)))
}

func (r *codecReader) payloadMap(what string) map[string]string {
	if r.byteVal(what) == 0 || r.err != nil {
		return nil
	}
	n := r.uvarint(what)
	if r.err != nil {
		return nil
	}
	// Each entry takes at least two bytes; reject absurd counts before
	// allocating.
	if n > uint64(len(r.b)) {
		r.fail(what)
		return nil
	}
	m := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k := r.str(what)
		v := r.str(what)
		if r.err != nil {
			return nil
		}
		m[k] = v
	}
	return m
}

func (r *codecReader) project() *Project {
	p := &Project{
		ID:         r.varint("project id"),
		Name:       r.str("project name"),
		Presenter:  r.str("project presenter"),
		Redundancy: int(r.varint("project redundancy")),
	}
	p.Strategy = Strategy(r.str("project strategy"))
	p.Created = r.timeVal("project created")
	return p
}

func (r *codecReader) task(t *Task) {
	t.ID = r.varint("task id")
	t.ProjectID = r.varint("task project id")
	t.ExternalID = r.str("task external id")
	t.Payload = r.payloadMap("task payload")
	t.Redundancy = int(r.varint("task redundancy"))
	t.Priority = r.f64("task priority")
	t.State = TaskState(r.str("task state"))
	t.NumAnswers = int(r.varint("task answers"))
	t.Created = r.timeVal("task created")
	t.Completed = r.timeVal("task completed")
}

func (r *codecReader) run() *TaskRun {
	return &TaskRun{
		ID:        r.varint("run id"),
		TaskID:    r.varint("run task id"),
		ProjectID: r.varint("run project id"),
		WorkerID:  r.str("run worker"),
		Answer:    r.str("run answer"),
		Assigned:  r.timeVal("run assigned"),
		Finished:  r.timeVal("run finished"),
	}
}

// decodeEventPayload parses a version-1 event payload. Everything it
// returns owns its memory; nothing aliases payload.
func decodeEventPayload(payload []byte) (Event, error) {
	r := codecReader{b: payload}
	var ev Event
	ev.Op = Op(r.str("op"))
	if r.byteVal("project flag") == 1 {
		ev.Project = r.project()
	}
	ev.ProjectID = r.varint("event project id")
	if n := r.uvarint("task count"); r.err == nil && n > 0 {
		if n > uint64(len(r.b))+1 {
			r.fail("task count")
		} else {
			ev.Tasks = make([]Task, n)
			for i := range ev.Tasks {
				r.task(&ev.Tasks[i])
			}
		}
	}
	if r.byteVal("run flag") == 1 {
		ev.Run = r.run()
	}
	ev.Worker = r.str("worker")
	if r.err != nil {
		return Event{}, r.err
	}
	if len(r.b) != 0 {
		return Event{}, fmt.Errorf("%w: %d trailing payload bytes", ErrEventCorrupt, len(r.b))
	}
	return ev, nil
}

// decodeEventValue parses one journal value holding a binary event frame.
func decodeEventValue(val []byte) (Event, error) {
	kind, payload, err := splitFrame(val)
	if err != nil {
		return Event{}, err
	}
	if kind != frameEvent {
		return Event{}, fmt.Errorf("%w: frame kind %d where an event was expected", ErrEventCorrupt, kind)
	}
	return decodeEventPayload(payload)
}

// DecodeSnapshotFrame unwraps a frameSnapshot produced by
// AppendSnapshotFrame, returning the snapshot bytes (aliasing data).
func DecodeSnapshotFrame(data []byte) ([]byte, error) {
	kind, payload, err := splitFrame(data)
	if err != nil {
		return nil, err
	}
	if kind != frameSnapshot {
		return nil, fmt.Errorf("%w: frame kind %d where a snapshot was expected", ErrEventCorrupt, kind)
	}
	return payload, nil
}

// EncodeEventFrame appends ev as one complete journal value frame to dst
// and returns the extended slice. Production appends go through the
// journal's pooled encoder (encodeEvent); this export exists so the
// benchmark's codec probe (benchmark/layers.go, platform.codec_* metrics)
// can measure the encoder in isolation.
func EncodeEventFrame(dst []byte, ev *Event) []byte {
	return appendEventFrame(dst, ev)
}

// DecodeEventFrame parses one binary journal value produced by
// EncodeEventFrame (or by the journal itself) back into an Event. Like
// EncodeEventFrame it exists for the benchmark's codec probe; replay
// decodes through the unexported path directly.
func DecodeEventFrame(val []byte) (Event, error) {
	return decodeEventValue(val)
}

// ReadStreamFrame reads one frameStream from br, reusing *scratch for the
// payload (grown as needed, never retained). io.EOF means a clean end of
// stream; any partial frame is io.ErrUnexpectedEOF or a corruption error.
func ReadStreamFrame(br *bufio.Reader, scratch *[]byte) (uint64, Event, error) {
	var head [frameHeaderLen]byte
	if _, err := io.ReadFull(br, head[:1]); err != nil {
		return 0, Event{}, err // io.EOF: clean boundary
	}
	if _, err := io.ReadFull(br, head[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, Event{}, err
	}
	if head[0] != frameMagic {
		return 0, Event{}, fmt.Errorf("%w: bad magic 0x%02x", ErrEventCorrupt, head[0])
	}
	if head[1] != frameVersion {
		return 0, Event{}, fmt.Errorf("%w: version %d (this build reads %d)", ErrFrameVersion, head[1], frameVersion)
	}
	if head[2] != frameStream {
		return 0, Event{}, fmt.Errorf("%w: frame kind %d where a stream frame was expected", ErrEventCorrupt, head[2])
	}
	crc := binary.LittleEndian.Uint32(head[3:7])
	plen, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, Event{}, err
	}
	if plen > maxFramePayload {
		return 0, Event{}, fmt.Errorf("%w: bad payload length", ErrEventCorrupt)
	}
	if uint64(cap(*scratch)) < plen {
		*scratch = make([]byte, plen)
	}
	payload := (*scratch)[:plen]
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, Event{}, err
	}
	if crc32.Checksum(payload, frameCRC) != crc {
		return 0, Event{}, fmt.Errorf("%w: checksum mismatch", ErrEventCorrupt)
	}
	r := codecReader{b: payload}
	seq := r.uvarint("stream sequence")
	if r.err != nil {
		return 0, Event{}, r.err
	}
	ev, err := decodeEventPayload(r.b)
	if err != nil {
		return 0, Event{}, err
	}
	return seq, ev, nil
}
