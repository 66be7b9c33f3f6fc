package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) *DB {
	t.Helper()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	return db
}

func TestPutGetDelete(t *testing.T) {
	db := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer db.Close()

	if _, ok, _ := db.Get([]byte("missing")); ok {
		t.Fatal("Get on empty store reported a value")
	}
	if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get k1 = %q, %v, %v; want v1", v, ok, err)
	}
	if err := db.Put([]byte("k1"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = db.Get([]byte("k1"))
	if string(v) != "v2" {
		t.Fatalf("overwrite: got %q, want v2", v)
	}
	if err := db.Delete([]byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("k1")); ok {
		t.Fatal("Get after Delete reported a value")
	}
	has, err := db.Has([]byte("k1"))
	if err != nil || has {
		t.Fatalf("Has after Delete = %v, %v", has, err)
	}
}

func TestEmptyKeyAndValue(t *testing.T) {
	db := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer db.Close()
	if err := db.Put(nil, nil); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get(nil)
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty key/value round trip: %q, %v, %v", v, ok, err)
	}
	if err := db.Put([]byte("k"), nil); err != nil {
		t.Fatal(err)
	}
	v, ok, _ = db.Get([]byte("k"))
	if !ok || len(v) != 0 {
		t.Fatalf("empty value round trip: %q, %v", v, ok)
	}
}

func TestSizeLimits(t *testing.T) {
	db := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer db.Close()
	if err := db.Put(make([]byte, MaxKeyLen+1), nil); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("oversized key: got %v, want ErrKeyTooLarge", err)
	}
	if err := db.Delete(make([]byte, MaxKeyLen+1)); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("oversized delete key: got %v, want ErrKeyTooLarge", err)
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, Options{})
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete([]byte("key-050")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = mustOpen(t, dir, Options{})
	defer db.Close()
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%03d", i)
		v, ok, err := db.Get([]byte(key))
		if err != nil {
			t.Fatal(err)
		}
		if i == 50 {
			if ok {
				t.Fatalf("deleted key %s resurfaced after reopen", key)
			}
			continue
		}
		if !ok || string(v) != fmt.Sprintf("val-%03d", i) {
			t.Fatalf("after reopen %s = %q, %v", key, v, ok)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, Options{MaxSegmentBytes: 256, Sync: SyncNever})
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte{'x'}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation to create several segments, got %d", st.Segments)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen must rebuild the keydir across segments (via hints for the
	// sealed ones).
	db = mustOpen(t, dir, Options{MaxSegmentBytes: 256, Sync: SyncNever})
	defer db.Close()
	for i := 0; i < 200; i++ {
		if _, ok, _ := db.Get([]byte(fmt.Sprintf("k%04d", i))); !ok {
			t.Fatalf("key k%04d lost across rotation+reopen", i)
		}
	}
}

func TestHintFilesUsedOnReopen(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, Options{MaxSegmentBytes: 256, Sync: SyncNever})
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte{'y'}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	hints, err := filepath.Glob(filepath.Join(dir, "*"+hintSuffix))
	if err != nil || len(hints) == 0 {
		t.Fatalf("expected hint files after rotation, got %v (%v)", hints, err)
	}
	db = mustOpen(t, dir, Options{MaxSegmentBytes: 256, Sync: SyncNever})
	defer db.Close()
	if st := db.Stats(); st.Keys != 100 {
		t.Fatalf("reopen via hints: keys = %d, want 100", st.Keys)
	}
}

func TestCorruptHintFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, Options{MaxSegmentBytes: 256, Sync: SyncNever})
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte{'z'}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	hints, _ := filepath.Glob(filepath.Join(dir, "*"+hintSuffix))
	if len(hints) == 0 {
		t.Skip("no hints produced")
	}
	// Corrupt every hint file; data must still load from the segments.
	for _, h := range hints {
		if err := os.WriteFile(h, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db = mustOpen(t, dir, Options{MaxSegmentBytes: 256, Sync: SyncNever})
	defer db.Close()
	if st := db.Stats(); st.Keys != 100 {
		t.Fatalf("after hint corruption: keys = %d, want 100", st.Keys)
	}
}

func TestBatchAtomicity(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, Options{Sync: SyncNever})
	b := NewBatch().
		Put([]byte("a"), []byte("1")).
		Put([]byte("b"), []byte("2")).
		Delete([]byte("a"))
	if b.Len() != 3 {
		t.Fatalf("batch len = %d, want 3", b.Len())
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("a")); ok {
		t.Fatal("key 'a' should be deleted by the batch's later delete")
	}
	v, ok, _ := db.Get([]byte("b"))
	if !ok || string(v) != "2" {
		t.Fatalf("batch put b = %q, %v", v, ok)
	}
	db.Close()

	// Batch effects must survive reopen (replay of batch frames).
	db = mustOpen(t, dir, Options{Sync: SyncNever})
	defer db.Close()
	if _, ok, _ := db.Get([]byte("a")); ok {
		t.Fatal("batch delete lost on reopen")
	}
	if v, ok, _ := db.Get([]byte("b")); !ok || string(v) != "2" {
		t.Fatalf("batch put lost on reopen: %q, %v", v, ok)
	}
}

func TestEmptyBatchIsNoop(t *testing.T) {
	db := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer db.Close()
	if err := db.Apply(NewBatch()); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Keys != 0 {
		t.Fatalf("empty batch created keys: %+v", st)
	}
}

func TestScanPrefix(t *testing.T) {
	db := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer db.Close()
	for _, k := range []string{"t/a/1", "t/a/2", "t/b/1", "u/c/1"} {
		if err := db.Put([]byte(k), []byte("v:"+k)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	err := db.Scan("t/a/", func(k string, v []byte) bool {
		if string(v) != "v:"+k {
			t.Errorf("value mismatch for %s: %q", k, v)
		}
		got = append(got, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"t/a/1", "t/a/2"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Scan got %v, want %v", got, want)
	}

	// Early stop.
	calls := 0
	db.Scan("t/", func(string, []byte) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("early-stop scan made %d calls, want 1", calls)
	}

	n, err := db.Count("t/")
	if err != nil || n != 3 {
		t.Fatalf("Count(t/) = %d, %v; want 3", n, err)
	}
	keys, _ := db.Keys("")
	if len(keys) != 4 {
		t.Fatalf("Keys(\"\") = %v, want 4 entries", keys)
	}
}

func TestDeletePrefix(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, Options{Sync: SyncNever})
	for _, k := range []string{"t/a/1", "t/a/2", "t/b/1"} {
		db.Put([]byte(k), []byte("v"))
	}
	n, err := db.DeletePrefix("t/a/")
	if err != nil || n != 2 {
		t.Fatalf("DeletePrefix = %d, %v; want 2", n, err)
	}
	if c, _ := db.Count(""); c != 1 {
		t.Fatalf("after DeletePrefix count = %d, want 1", c)
	}
	db.Close()
	db = mustOpen(t, dir, Options{Sync: SyncNever})
	defer db.Close()
	if c, _ := db.Count(""); c != 1 {
		t.Fatalf("after reopen count = %d, want 1", c)
	}
}

func TestCompactReclaimsSpace(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, Options{MaxSegmentBytes: 1 << 12, Sync: SyncNever})
	// Many overwrites of the same keys create dead bytes.
	for round := 0; round < 20; round++ {
		for i := 0; i < 50; i++ {
			key := []byte(fmt.Sprintf("k%02d", i))
			if err := db.Put(key, bytes.Repeat([]byte{byte('a' + round%26)}, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := db.Stats()
	if before.DeadBytes == 0 {
		t.Fatal("expected dead bytes before compaction")
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if after.Keys != 50 {
		t.Fatalf("keys after compact = %d, want 50", after.Keys)
	}
	if after.TotalBytes >= before.TotalBytes {
		t.Fatalf("compaction did not shrink store: %d -> %d", before.TotalBytes, after.TotalBytes)
	}
	if after.DeadBytes != 0 {
		t.Fatalf("dead bytes after compact = %d, want 0", after.DeadBytes)
	}
	// Values intact.
	for i := 0; i < 50; i++ {
		v, ok, err := db.Get([]byte(fmt.Sprintf("k%02d", i)))
		if err != nil || !ok || len(v) != 64 {
			t.Fatalf("post-compact get k%02d = %d bytes, %v, %v", i, len(v), ok, err)
		}
	}
	// Writable and reopenable after compact.
	if err := db.Put([]byte("new"), []byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db = mustOpen(t, dir, Options{Sync: SyncNever})
	defer db.Close()
	if v, ok, _ := db.Get([]byte("new")); !ok || string(v) != "post-compact" {
		t.Fatalf("post-compact write lost: %q, %v", v, ok)
	}
	if st := db.Stats(); st.Keys != 51 {
		t.Fatalf("keys after compact+reopen = %d, want 51", st.Keys)
	}
}

func TestCompactWithDeletesDoesNotResurrect(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, Options{Sync: SyncNever})
	db.Put([]byte("keep"), []byte("1"))
	db.Put([]byte("gone"), []byte("2"))
	db.Delete([]byte("gone"))
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("gone")); ok {
		t.Fatal("deleted key visible after compact")
	}
	db.Close()
	db = mustOpen(t, dir, Options{Sync: SyncNever})
	defer db.Close()
	if _, ok, _ := db.Get([]byte("gone")); ok {
		t.Fatal("deleted key resurrected after compact+reopen")
	}
	if v, ok, _ := db.Get([]byte("keep")); !ok || string(v) != "1" {
		t.Fatalf("kept key lost: %q %v", v, ok)
	}
}

func TestCompactIfNeeded(t *testing.T) {
	db := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put([]byte("same-key"), bytes.Repeat([]byte{'q'}, 100))
	}
	ran, err := db.CompactIfNeeded(0.5, 1)
	if err != nil || !ran {
		t.Fatalf("CompactIfNeeded = %v, %v; want ran", ran, err)
	}
	ran, err = db.CompactIfNeeded(0.5, 1)
	if err != nil || ran {
		t.Fatalf("second CompactIfNeeded = %v, %v; want not ran", ran, err)
	}
}

func TestDirectoryLock(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, Options{Sync: SyncNever})
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open: got %v, want ErrLocked", err)
	}
	db.Close()
	// Lock released on close.
	db2 := mustOpen(t, dir, Options{Sync: SyncNever})
	db2.Close()

	// Simulate a crashed process leaving a stale lock.
	if err := os.WriteFile(filepath.Join(dir, "LOCK"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("stale lock: got %v, want ErrLocked", err)
	}
	db3 := mustOpen(t, dir, Options{BreakStaleLock: true, Sync: SyncNever})
	db3.Close()
}

func TestClosedErrors(t *testing.T) {
	db := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	db.Close()
	if err := db.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close: %v", err)
	}
	if _, _, err := db.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close: %v", err)
	}
	if err := db.Delete([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after close: %v", err)
	}
	if err := db.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close: %v", err)
	}
	if err := db.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after close: %v", err)
	}
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close: %v", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncBatch, SyncNever} {
		t.Run(fmt.Sprintf("policy-%d", pol), func(t *testing.T) {
			dir := t.TempDir()
			db := mustOpen(t, dir, Options{Sync: pol})
			for i := 0; i < 50; i++ {
				if err := db.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Sync(); err != nil {
				t.Fatal(err)
			}
			db.Close()
			db = mustOpen(t, dir, Options{Sync: pol})
			defer db.Close()
			if st := db.Stats(); st.Keys != 50 {
				t.Fatalf("keys = %d, want 50", st.Keys)
			}
		})
	}
}

func TestStatsCounters(t *testing.T) {
	db := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer db.Close()
	db.Put([]byte("a"), []byte("1"))
	db.Put([]byte("b"), []byte("2"))
	db.Get([]byte("a"))
	db.Delete([]byte("b"))
	st := db.Stats()
	if st.Puts != 2 || st.Gets != 1 || st.Deletes != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if st.Keys != 1 {
		t.Fatalf("keys = %d, want 1", st.Keys)
	}
	if st.LiveBytes <= 0 || st.TotalBytes < st.LiveBytes {
		t.Fatalf("sizes inconsistent: %+v", st)
	}
}
