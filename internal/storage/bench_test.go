package storage

import (
	"fmt"
	"os"
	"testing"
)

// Experiment E7 (docs/ARCHITECTURE.md § "Experiments and gates"): storage
// engine throughput and recovery cost.

func benchPut(b *testing.B, pol SyncPolicy, valSize int) {
	db, err := Open(b.TempDir(), Options{Sync: pol})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := make([]byte, valSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%09d", i))
		if err := db.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPut_SyncNever_128B(b *testing.B)  { benchPut(b, SyncNever, 128) }
func BenchmarkPut_SyncAlways_128B(b *testing.B) { benchPut(b, SyncAlways, 128) }
func BenchmarkPut_SyncNever_4KiB(b *testing.B)  { benchPut(b, SyncNever, 4096) }

func BenchmarkGet(b *testing.B) {
	db, err := Open(b.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const n = 10000
	val := make([]byte, 256)
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%09d", i)), val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%09d", i%n))
		if _, ok, err := db.Get(key); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkBatchApply_100Ops(b *testing.B) {
	db, err := Open(b.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := NewBatch()
		for j := 0; j < 100; j++ {
			batch.Put([]byte(fmt.Sprintf("key-%d-%d", i, j)), val)
		}
		if err := db.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRecovery measures Open time over a store of n records, with and
// without hint files (experiment E7's hint ablation).
func benchRecovery(b *testing.B, n int, hints bool) {
	dir := b.TempDir()
	db, err := Open(dir, Options{Sync: SyncNever, MaxSegmentBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 256)
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%09d", i)), val)
	}
	db.Close()
	if !hints {
		removeAllHints(b, dir)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(dir, Options{Sync: SyncNever, MaxSegmentBytes: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := db.Stats(); st.Keys != n {
			b.Fatalf("recovered %d keys, want %d", st.Keys, n)
		}
		db.Close()
		if !hints {
			removeAllHints(b, dir)
		}
		b.StartTimer()
	}
}

func removeAllHints(b *testing.B, dir string) {
	b.Helper()
	ids, err := listSegments(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range ids {
		os.Remove(hintPath(dir, id))
	}
}

func BenchmarkRecovery_10kRecords_Scan(b *testing.B)  { benchRecovery(b, 10_000, false) }
func BenchmarkRecovery_10kRecords_Hints(b *testing.B) { benchRecovery(b, 10_000, true) }
func BenchmarkRecovery_50kRecords_Scan(b *testing.B)  { benchRecovery(b, 50_000, false) }
func BenchmarkRecovery_50kRecords_Hints(b *testing.B) { benchRecovery(b, 50_000, true) }

func BenchmarkCompact_20kLive(b *testing.B) {
	val := make([]byte, 128)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := Open(b.TempDir(), Options{Sync: SyncNever, MaxSegmentBytes: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 20_000; j++ {
			db.Put([]byte(fmt.Sprintf("key-%09d", j%5000)), val) // 75% dead
		}
		b.StartTimer()
		if err := db.Compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		db.Close()
		b.StartTimer()
	}
}

func BenchmarkScan_10kKeys(b *testing.B) {
	db, err := Open(b.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := make([]byte, 64)
	for i := 0; i < 10_000; i++ {
		db.Put([]byte(fmt.Sprintf("t/table/%06d", i)), val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		db.Scan("t/table/", func(string, []byte) bool { n++; return true })
		if n != 10_000 {
			b.Fatal(n)
		}
	}
}
