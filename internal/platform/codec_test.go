package platform

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// codecSampleEvents covers every event shape and the encoding edge cases:
// zero times, zoned times, nil vs empty payload maps, empty strings,
// negative-adjacent numerics and float priorities.
func codecSampleEvents() []Event {
	est := time.FixedZone("", -5*3600)
	return []Event{
		{Op: OpProject, Project: &Project{
			ID: 7, Name: "label-birds", Presenter: "image",
			Redundancy: 3, Strategy: DepthFirst,
			Created: time.Date(2026, 8, 8, 12, 30, 15, 123456789, time.UTC),
		}},
		{Op: OpTasks, ProjectID: 7, Tasks: []Task{
			{
				ID: 41, ProjectID: 7, ExternalID: "row-41",
				Payload:    map[string]string{"url_b": "http://x/img1.jpg", "a": ""},
				Redundancy: 3, Priority: 2.5, State: TaskOngoing,
				Created: time.Date(2026, 8, 8, 12, 31, 0, 0, est),
			},
			{
				ID: 42, ProjectID: 7, ExternalID: "",
				Payload: map[string]string{}, // empty, not nil: JSON {}
				State:   TaskCompleted, NumAnswers: 3,
				Created:   time.Date(2026, 8, 8, 12, 31, 1, 999999999, time.UTC),
				Completed: time.Date(2026, 8, 8, 13, 0, 0, 500, time.UTC),
			},
			{ID: 43, ProjectID: 7, Payload: nil, Priority: -1.25, State: TaskOngoing},
		}},
		{Op: OpRun, Run: &TaskRun{
			ID: 99, TaskID: 41, ProjectID: 7,
			WorkerID: "w-1", Answer: `{"verdict":"yes"}`,
			Assigned: time.Date(2026, 8, 8, 12, 40, 0, 42, time.UTC),
			Finished: time.Now(), // live wall time, Local zone, monotonic reading
		}},
		{Op: OpBan, ProjectID: 7, Worker: "spammer"},
		{Op: OpRun, Run: &TaskRun{}}, // all zero values
	}
}

// TestEventCodecJSONEquivalent proves the binary codec loses nothing the
// JSON encoding carried: for every sample event, decode(encode(ev)) must
// marshal to the exact JSON bytes ev itself marshals to — the property
// byte-identical snapshot exports rest on.
func TestEventCodecJSONEquivalent(t *testing.T) {
	var frameBytes, jsonBytes int
	for i, ev := range codecSampleEvents() {
		frame := appendEventFrame(nil, &ev)
		if frame[0] != frameMagic {
			t.Fatalf("event %d: frame does not start with the codec magic", i)
		}
		got, err := decodeEventValue(frame)
		if err != nil {
			t.Fatalf("event %d: decode: %v", i, err)
		}
		wantJSON, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("event %d roundtrip diverged:\n want %s\n  got %s", i, wantJSON, gotJSON)
		}
		// The nil/empty payload distinction must survive directly, not
		// just through JSON rendering.
		for j := range ev.Tasks {
			if (ev.Tasks[j].Payload == nil) != (got.Tasks[j].Payload == nil) {
				t.Fatalf("event %d task %d: payload nil-ness flipped", i, j)
			}
		}
		frameBytes += len(frame)
		jsonBytes += len(wantJSON)
	}
	// Size bar: CRC and header included, frames must stay at least 30%
	// smaller than the JSON rendering of the same events.
	if 10*frameBytes > 7*jsonBytes {
		t.Fatalf("frames are %d bytes vs %d as JSON, want <= 70%%", frameBytes, jsonBytes)
	}
}

// TestStreamFrameRoundTrip covers the replication stream unit: frames
// written back to back decode to the same (seq, event) pairs through the
// buffered reader, and a clean boundary yields io.EOF.
func TestStreamFrameRoundTrip(t *testing.T) {
	events := codecSampleEvents()
	var wire []byte
	for i, ev := range events {
		wire = AppendStreamFrame(wire, uint64(1000+i), &ev)
	}
	br := bufio.NewReader(bytes.NewReader(wire))
	var scratch []byte
	for i, ev := range events {
		seq, got, err := ReadStreamFrame(br, &scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if seq != uint64(1000+i) {
			t.Fatalf("frame %d: seq %d, want %d", i, seq, 1000+i)
		}
		wantJSON, _ := json.Marshal(ev)
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("frame %d diverged:\n want %s\n  got %s", i, wantJSON, gotJSON)
		}
	}
	if _, _, err := ReadStreamFrame(br, &scratch); !errors.Is(err, io.EOF) {
		t.Fatalf("expected io.EOF at stream end, got %v", err)
	}
	// A frame cut mid-payload is an unexpected EOF, never a short decode.
	br = bufio.NewReader(bytes.NewReader(wire[:len(wire)/2]))
	var err error
	for err == nil {
		_, _, err = ReadStreamFrame(br, &scratch)
	}
	if errors.Is(err, io.EOF) {
		t.Fatal("truncated stream reported a clean EOF")
	}
}

// TestSnapshotFrameRoundTrip covers the CRC wrap used for snapshot
// transfer, including corruption detection.
func TestSnapshotFrameRoundTrip(t *testing.T) {
	data := []byte(`{"version":1,"seq":42}`)
	frame := AppendSnapshotFrame(nil, data)
	got, err := DecodeSnapshotFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("snapshot payload diverged: %q", got)
	}
	frame[len(frame)-1] ^= 0xFF
	if _, err := DecodeSnapshotFrame(frame); !errors.Is(err, ErrEventCorrupt) {
		t.Fatalf("corrupted snapshot frame decoded: %v", err)
	}
}

// TestJournalCorruptFrameFailsRecovery: a damaged journal value — bad
// CRC, short write, unrecognized encoding, a would-be legacy JSON event,
// future codec version — must fail recovery with the typed error, never
// load partial state.
func TestJournalCorruptFrameFailsRecovery(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(val []byte) []byte
		want    error
	}{
		{"bad-crc", func(val []byte) []byte {
			val[len(val)-1] ^= 0xFF
			return val
		}, ErrEventCorrupt},
		{"short-write", func(val []byte) []byte {
			return val[:len(val)-4]
		}, ErrEventCorrupt},
		{"unknown-encoding", func(val []byte) []byte {
			val[0] = 0x00
			return val
		}, ErrEventCorrupt},
		{"legacy-json", func(val []byte) []byte {
			ev, err := decodeEventValue(val)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			return doc
		}, ErrEventCorrupt},
		{"future-version", func(val []byte) []byte {
			val[1] = 99
			return val
		}, ErrFrameVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			env := openSnapEnv(t, dir, storage.SyncNever, false, nil)
			driveWorkload(t, env.e, 4)
			env.close()

			// Damage one event value in the middle of the journal.
			db, err := storage.Open(dir, storage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			keys, err := db.Keys("j/")
			if err != nil || len(keys) < 3 {
				t.Fatalf("journal keys: %v (%d)", err, len(keys))
			}
			key := []byte(keys[len(keys)/2])
			val, ok, err := db.Get(key)
			if err != nil || !ok {
				t.Fatalf("get %s: %v", key, err)
			}
			if val[0] != frameMagic {
				t.Fatalf("expected a binary journal value at %s", key)
			}
			if err := db.Put(key, tc.corrupt(val)); err != nil {
				t.Fatal(err)
			}
			db.Close()

			db, err = storage.Open(dir, storage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			j, err := OpenJournal(db)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			e, err := NewEngineOpts(EngineOptions{Clock: vclock.NewVirtual(), Journal: j})
			if !errors.Is(err, tc.want) {
				t.Fatalf("recovery over a %s frame: err = %v, want %v", tc.name, err, tc.want)
			}
			if e != nil {
				t.Fatalf("recovery over a %s frame returned a partially loaded engine", tc.name)
			}
		})
	}
}

// BenchmarkReplay10k measures full-journal replay of 10k run events
// through the shared-buffer scan + binary decode. Allocation counts are
// the point.
func BenchmarkReplay10k(b *testing.B) {
	dir := b.TempDir()
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	j, err := OpenJournal(db)
	if err != nil {
		b.Fatal(err)
	}
	base := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	const n = 10_000
	evs := make([]Event, 0, 256)
	for i := 0; i < n; i += len(evs) {
		evs = evs[:0]
		for k := 0; k < 256 && i+k < n; k++ {
			id := int64(i + k)
			evs = append(evs, Event{Op: OpRun, Run: &TaskRun{
				ID: id, TaskID: id % 500, ProjectID: 1,
				WorkerID: fmt.Sprintf("w-%d", id%50),
				Answer:   `{"label":"bird","confidence":0.87}`,
				Assigned: base.Add(time.Duration(id) * time.Millisecond),
				Finished: base.Add(time.Duration(id+1) * time.Millisecond),
			}})
		}
		if err := j.AppendBatch(evs); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	j2, err := OpenJournal(db)
	if err != nil {
		b.Fatal(err)
	}
	defer j2.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := j2.Replay(func(ev Event) error {
			if ev.Run == nil {
				return errors.New("bench: decoded event lost its run")
			}
			count++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if count != n {
			b.Fatalf("replayed %d events, want %d", count, n)
		}
	}
}
