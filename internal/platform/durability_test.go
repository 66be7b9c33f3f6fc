package platform

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/storage"
)

// syncedFS is a storage.FileOps that remembers, for each segment opened
// through it, how many bytes its last fsync covered. crashImage turns
// that into the disk a power cut leaves behind: copyDataDir copies
// page-cache bytes too, so it cannot see a missing fsync; this can.
type syncedFS struct {
	mu     sync.Mutex
	synced map[string]int64 // segment path -> size at its last Sync
}

func (fs *syncedFS) record(path string, size int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.synced == nil {
		fs.synced = make(map[string]int64)
	}
	fs.synced[path] = size
}

// OpenWrite counts a reopened segment's existing bytes as synced: they
// were on disk before this process touched the file.
func (fs *syncedFS) OpenWrite(path string) (storage.SegmentFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	fs.record(path, st.Size())
	return syncedFile{File: f, fs: fs, path: path}, nil
}

func (fs *syncedFS) OpenTrunc(path string) (storage.SegmentFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	fs.record(path, 0)
	return syncedFile{File: f, fs: fs, path: path}, nil
}

func (fs *syncedFS) Truncate(path string, size int64) error {
	return os.Truncate(path, size)
}

type syncedFile struct {
	*os.File
	fs   *syncedFS
	path string
}

func (f syncedFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	st, err := f.File.Stat()
	if err != nil {
		return err
	}
	f.fs.record(f.path, st.Size())
	return nil
}

// crashImage copies the store in src into a fresh directory as a power
// cut would leave it: every segment written through fs is cut back to
// the size its last fsync covered. The caller must keep the store idle
// while the image is taken.
func (fs *syncedFS) crashImage(t *testing.T, src string) string {
	t.Helper()
	dst := copyDataDir(t, src)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for path, size := range fs.synced {
		err := os.Truncate(filepath.Join(dst, filepath.Base(path)), size)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	return dst
}

// TestJournalSyncBatchFlushIsDurable: under SyncBatch an append is acked
// at enqueue, but once a later Flush has returned the event is on disk —
// a power-cut image keeping only fsynced bytes recovers every one.
func TestJournalSyncBatchFlushIsDurable(t *testing.T) {
	dir := t.TempDir()
	fs := &syncedFS{}
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncBatch, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	j, err := OpenJournal(db)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := j.Append(Event{Op: OpBan, ProjectID: 1, Worker: fmt.Sprintf("w%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	crash := fs.crashImage(t, dir)

	db2, err := storage.Open(crash, storage.Options{Sync: storage.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	j2, err := OpenJournal(db2)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	seen := 0
	if err := j2.Replay(func(ev Event) error {
		if ev.Worker != fmt.Sprintf("w%d", seen) {
			return fmt.Errorf("event %d out of order: %q", seen, ev.Worker)
		}
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("power-cut image recovered %d of %d flushed events", seen, n)
	}
}

// TestJournalFenceIsDurable: Fence's token is fsynced under every sync
// policy — a fenced journal commits no further groups, so nothing else
// would carry the token to disk — and a power-cut image comes back
// fenced at that epoch.
func TestJournalFenceIsDurable(t *testing.T) {
	for _, pol := range []struct {
		name string
		sync storage.SyncPolicy
	}{{"always", storage.SyncAlways}, {"batch", storage.SyncBatch}, {"never", storage.SyncNever}} {
		t.Run(pol.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := &syncedFS{}
			db, err := storage.Open(dir, storage.Options{Sync: pol.sync, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			j, err := OpenJournal(db)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			want := EpochToken{Epoch: 3, Holder: "g1"}
			if err := j.Fence(want); err != nil {
				t.Fatal(err)
			}
			crash := fs.crashImage(t, dir)

			db2, err := storage.Open(crash, storage.Options{Sync: pol.sync})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			got, err := JournalEpoch(db2)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("power-cut image recovered epoch %s, want %s", got, want)
			}
		})
	}
}
