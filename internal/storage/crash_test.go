package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyDir snapshots src into a fresh directory, skipping the LOCK file —
// exactly the on-disk image a crashed process would leave behind (our
// writes are appends, so a byte-level copy is a valid crash image).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || e.Name() == "LOCK" {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		out.Close()
	}
	return dst
}

// lastSegment returns the path of the newest segment in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	ids, err := listSegments(dir)
	if err != nil || len(ids) == 0 {
		t.Fatalf("listSegments: %v %v", ids, err)
	}
	return segmentPath(dir, ids[len(ids)-1])
}

// TestTornTailTruncated simulates a crash that tore the final write: for
// every possible truncation point of the final frame, reopening must succeed
// and expose exactly the fully-written records.
func TestTornTailTruncated(t *testing.T) {
	base := t.TempDir()
	db := mustOpen(t, base, Options{Sync: SyncNever})
	for i := 0; i < 10; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	seg := lastSegment(t, base)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Find the offset where the final frame starts.
	var offsets []int64
	scanSegment(seg, func(sr scanResult) error {
		offsets = append(offsets, sr.off)
		return nil
	})
	if len(offsets) != 10 {
		t.Fatalf("expected 10 frames, got %d", len(offsets))
	}
	lastStart := int(offsets[9])

	for cut := lastStart + 1; cut < len(full); cut++ {
		crash := copyDir(t, base)
		if err := os.Truncate(lastSegment(t, crash), int64(cut)); err != nil {
			t.Fatal(err)
		}
		db, err := Open(crash, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("cut=%d: Open failed: %v", cut, err)
		}
		// First 9 records fully present; record 10 gone.
		for i := 0; i < 9; i++ {
			v, ok, err := db.Get([]byte(fmt.Sprintf("k%d", i)))
			if err != nil || !ok || string(v) != fmt.Sprintf("value-%d", i) {
				t.Fatalf("cut=%d: k%d = %q, %v, %v", cut, i, v, ok, err)
			}
		}
		if _, ok, _ := db.Get([]byte("k9")); ok {
			t.Fatalf("cut=%d: torn record k9 visible", cut)
		}
		// The store must be immediately writable after recovery.
		if err := db.Put([]byte("post"), []byte("crash")); err != nil {
			t.Fatalf("cut=%d: post-recovery put: %v", cut, err)
		}
		db.Close()
	}
}

// TestBitFlipInTailDetected flips every byte of the last frame in turn; the
// CRC must catch each flip and recovery must fall back to the valid prefix.
func TestBitFlipInTailDetected(t *testing.T) {
	base := t.TempDir()
	db := mustOpen(t, base, Options{Sync: SyncNever})
	for i := 0; i < 5; i++ {
		db.Put([]byte(fmt.Sprintf("k%d", i)), []byte(strings.Repeat("x", 20)))
	}
	db.Close()

	seg := lastSegment(t, base)
	var offsets []int64
	scanSegment(seg, func(sr scanResult) error {
		offsets = append(offsets, sr.off)
		return nil
	})
	lastStart := offsets[len(offsets)-1]
	full, _ := os.ReadFile(seg)

	for pos := lastStart; pos < int64(len(full)); pos += 7 { // sample positions
		crash := copyDir(t, base)
		p := lastSegment(t, crash)
		data := append([]byte(nil), full...)
		data[pos] ^= 0xFF
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(crash, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("pos=%d: Open: %v", pos, err)
		}
		// The flipped frame is the tail; everything before it survives.
		for i := 0; i < 4; i++ {
			if _, ok, _ := db.Get([]byte(fmt.Sprintf("k%d", i))); !ok {
				t.Fatalf("pos=%d: k%d lost", pos, i)
			}
		}
		if _, ok, _ := db.Get([]byte("k4")); ok {
			t.Fatalf("pos=%d: corrupt frame k4 served", pos)
		}
		db.Close()
	}
}

// TestCorruptionInSealedSegment verifies that damage to a sealed (non-final)
// segment is refused by default and salvaged with Options.Repair.
func TestCorruptionInSealedSegment(t *testing.T) {
	base := t.TempDir()
	db := mustOpen(t, base, Options{MaxSegmentBytes: 256, Sync: SyncNever})
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte{'v'}, 40))
	}
	db.Close()

	ids, _ := listSegments(base)
	if len(ids) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(ids))
	}
	victim := ids[0]

	crash := copyDir(t, base)
	p := segmentPath(crash, victim)
	data, _ := os.ReadFile(p)
	data[len(data)/2] ^= 0xFF
	os.WriteFile(p, data, 0o644)
	// Hints would mask the corruption of the segment body; remove them to
	// force a scan.
	hintFiles, _ := filepath.Glob(filepath.Join(crash, "*"+hintSuffix))
	for _, h := range hintFiles {
		os.Remove(h)
	}

	if _, err := Open(crash, Options{Sync: SyncNever}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with corrupt sealed segment: got %v, want ErrCorrupt", err)
	}

	db, err := Open(crash, Options{Sync: SyncNever, Repair: true, BreakStaleLock: true})
	if err != nil {
		t.Fatalf("Repair open: %v", err)
	}
	defer db.Close()
	// Later segments still replay; some keys from the damaged segment's
	// tail are lost, which Repair accepts.
	if st := db.Stats(); st.Keys == 0 {
		t.Fatal("repair salvaged nothing")
	}
}

// TestTornBatchInvisible ensures a batch torn mid-frame applies none of its
// operations after recovery.
func TestTornBatchInvisible(t *testing.T) {
	base := t.TempDir()
	db := mustOpen(t, base, Options{Sync: SyncNever})
	db.Put([]byte("pre"), []byte("1"))
	b := NewBatch().Put([]byte("x"), []byte("10")).Put([]byte("y"), []byte("20")).Delete([]byte("pre"))
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	db.Close()

	seg := lastSegment(t, base)
	var offsets []int64
	scanSegment(seg, func(sr scanResult) error {
		offsets = append(offsets, sr.off)
		return nil
	})
	batchStart := offsets[len(offsets)-1]
	full, _ := os.ReadFile(seg)

	for cut := batchStart + 1; cut < int64(len(full)); cut += 3 {
		crash := copyDir(t, base)
		os.Truncate(lastSegment(t, crash), cut)
		db, err := Open(crash, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if _, ok, _ := db.Get([]byte("x")); ok {
			t.Fatalf("cut=%d: partial batch applied (x visible)", cut)
		}
		if _, ok, _ := db.Get([]byte("y")); ok {
			t.Fatalf("cut=%d: partial batch applied (y visible)", cut)
		}
		if v, ok, _ := db.Get([]byte("pre")); !ok || string(v) != "1" {
			t.Fatalf("cut=%d: pre-batch key damaged: %q %v", cut, v, ok)
		}
		db.Close()
	}
}

// TestCrashBeforeCutoff simulates a crash during compaction after the merged
// segments were written but before CUTOFF committed: the store must recover
// to the identical state.
func TestCrashBeforeCutoff(t *testing.T) {
	base := t.TempDir()
	db := mustOpen(t, base, Options{MaxSegmentBytes: 512, Sync: SyncNever})
	want := map[string]string{}
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("k%03d", i)
		v := fmt.Sprintf("v%03d", i)
		db.Put([]byte(k), []byte(v))
		want[k] = v
	}
	db.Delete([]byte("k010"))
	delete(want, "k010")

	preCompact := copyDir(t, base)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Build the crash image: pre-compaction old segments + post-compaction
	// merged segments, but NO CUTOFF file.
	crash := copyDir(t, base)
	os.Remove(filepath.Join(crash, cutoffFile))
	oldEntries, _ := os.ReadDir(preCompact)
	for _, e := range oldEntries {
		if _, ok := parseSegmentID(e.Name()); !ok {
			continue
		}
		dst := filepath.Join(crash, e.Name())
		if _, err := os.Stat(dst); err == nil {
			continue // merged file with same id (should not happen)
		}
		data, _ := os.ReadFile(filepath.Join(preCompact, e.Name()))
		os.WriteFile(dst, data, 0o644)
	}

	db2, err := Open(crash, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("Open crash-before-cutoff image: %v", err)
	}
	defer db2.Close()
	for k, v := range want {
		got, ok, err := db2.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("%s = %q, %v, %v; want %q", k, got, ok, err, v)
		}
	}
	if _, ok, _ := db2.Get([]byte("k010")); ok {
		t.Fatal("deleted key resurrected by crash-before-cutoff recovery")
	}
}

// TestCrashAfterCutoff simulates a crash after CUTOFF committed but before
// the old segments were unlinked: recovery must drop them and serve the
// compacted state.
func TestCrashAfterCutoff(t *testing.T) {
	base := t.TempDir()
	db := mustOpen(t, base, Options{MaxSegmentBytes: 512, Sync: SyncNever})
	for i := 0; i < 60; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
	}
	db.Delete([]byte("k020"))
	preCompact := copyDir(t, base)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	crash := copyDir(t, base) // has CUTOFF + merged segments
	// Re-add the stale pre-compaction segments the crash left behind.
	oldEntries, _ := os.ReadDir(preCompact)
	staleCount := 0
	for _, e := range oldEntries {
		if _, ok := parseSegmentID(e.Name()); !ok {
			continue
		}
		data, _ := os.ReadFile(filepath.Join(preCompact, e.Name()))
		os.WriteFile(filepath.Join(crash, e.Name()), data, 0o644)
		staleCount++
	}
	if staleCount == 0 {
		t.Fatal("test setup: no stale segments")
	}

	db2, err := Open(crash, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("Open crash-after-cutoff image: %v", err)
	}
	defer db2.Close()
	if _, ok, _ := db2.Get([]byte("k020")); ok {
		t.Fatal("deleted key resurrected from stale segment")
	}
	for i := 0; i < 60; i++ {
		if i == 20 {
			continue
		}
		k := fmt.Sprintf("k%03d", i)
		if v, ok, _ := db2.Get([]byte(k)); !ok || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("%s wrong after recovery: %q %v", k, v, ok)
		}
	}
	// Stale files physically removed.
	ids, _ := listSegments(crash)
	cutoff, _ := readCutoff(crash)
	for _, id := range ids {
		if id < cutoff {
			t.Fatalf("stale segment %d not removed (cutoff %d)", id, cutoff)
		}
	}
}

// TestRepeatedCrashRecovery chains several crash/recover cycles with writes
// in between, mimicking a flaky experiment host.
func TestRepeatedCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	want := map[string]string{}
	cur := dir
	for round := 0; round < 5; round++ {
		opts := Options{MaxSegmentBytes: 512, Sync: SyncNever}
		if round > 0 {
			opts.BreakStaleLock = true
		}
		db := mustOpen(t, cur, opts)
		for k, v := range want { // verify everything surviving so far
			got, ok, err := db.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				t.Fatalf("round %d: %s = %q, %v, %v; want %q", round, k, got, ok, err, v)
			}
		}
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("r%d-k%d", round, i)
			v := fmt.Sprintf("r%d-v%d", round, i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		db.Sync()
		// "Crash": snapshot without closing, keep using the snapshot.
		cur = copyDir(t, cur)
		db.Close()
	}
}
