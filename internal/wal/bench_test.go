package wal

import (
	"fmt"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/storage"
)

// BenchmarkWALAppend measures the per-statement logging cost under each
// fsync policy: the gap between "always" and "never" is the price of the
// per-statement durability contract.
func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []string{FsyncAlways, FsyncNever} {
		b.Run(policy, func(b *testing.B) {
			dir := b.TempDir()
			cat := storage.NewCatalog()
			store, err := Open(dir, cat, Options{Fsync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			eng := engine.NewWithDurability(cat, nil, engine.Options{}, store)
			if _, err := eng.ExecuteSQL("CREATE TABLE t (a INT, s STRING)"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sql := fmt.Sprintf("INSERT INTO t VALUES (%d, 'row')", i)
				if _, err := eng.ExecuteSQL(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALRecover measures a cold open replaying a log with an empty
// base section and the given record count.
func BenchmarkWALRecover(b *testing.B) {
	for _, records := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			dir := b.TempDir()
			cat := storage.NewCatalog()
			store, err := Open(dir, cat, Options{Fsync: FsyncNever})
			if err != nil {
				b.Fatal(err)
			}
			eng := engine.NewWithDurability(cat, nil, engine.Options{}, store)
			if _, err := eng.ExecuteSQL("CREATE TABLE t (a INT, s STRING)"); err != nil {
				b.Fatal(err)
			}
			for i := 1; i < records; i++ {
				sql := fmt.Sprintf("INSERT INTO t VALUES (%d, 'row')", i)
				if _, err := eng.ExecuteSQL(sql); err != nil {
					b.Fatal(err)
				}
			}
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store, err := Open(dir, storage.NewCatalog(), Options{})
				if err != nil {
					b.Fatal(err)
				}
				if store.LSN() != uint64(records) {
					b.Fatalf("recovered LSN %d", store.LSN())
				}
				store.Close()
			}
		})
	}
}
