// Command sdb-server runs the service provider (machine MSP in the demo):
// an SDB engine listening for rewritten SQL from proxies. It holds only the
// public parameters — never key material.
//
// Usage:
//
//	sdb keygen -secret do.key -public sp.pub     # at the data owner
//	sdb-server -listen :7070 -public sp.pub      # at the service provider
//
// With -data-dir (or SDB_DATA_DIR) the server is durable: every write
// statement is logged to a write-ahead log before it is applied, periodic
// checkpoints snapshot the columns, and a restart recovers the catalog
// before the listener comes up. SIGTERM/SIGINT trigger a graceful
// shutdown: a final checkpoint, a log sync, then exit.
//
// Configuration is flags only, with one precedence rule: flag > environment
// variable as that flag's default > built-in default. Two flags have an
// environment default, the two deployment paths: -data-dir (SDB_DATA_DIR)
// and -spill-dir (SDB_SPILL_DIR). Nothing below main reads the environment.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdb/internal/engine"
	"sdb/internal/secure"
	"sdb/internal/server"
	"sdb/internal/spill"
	"sdb/internal/storage"
	"sdb/internal/wal"
)

// frameCap maps the -max-frame flag onto the server knob: 0 keeps the
// built-in default, negative disables the cap entirely.
func frameCap(n int) int {
	switch {
	case n == 0:
		return server.DefaultMaxFrameBytes
	case n < 0:
		return 0
	default:
		return n
	}
}

func main() {
	listen := flag.String("listen", ":7070", "address to listen on")
	public := flag.String("public", "", "public parameters file written by 'sdb keygen'")
	par := flag.Int("parallel", 0, "secure-operator worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	chunk := flag.Int("chunk", 0, "rows per evaluation chunk (0 = default 1024)")
	memBudget := flag.Int("mem-budget", 0, "per-query resident-row budget; blocking operators spill to disk past it (<= 0 = unlimited)")
	spillDir := flag.String("spill-dir", os.Getenv("SDB_SPILL_DIR"), "directory for spill temp files (default SDB_SPILL_DIR; empty = the system temp dir)")
	dataDir := flag.String("data-dir", os.Getenv("SDB_DATA_DIR"), "durable data directory: WAL + checkpoints; recovery runs before serving (default SDB_DATA_DIR; empty = in-memory only)")
	checkpointEvery := flag.Int("checkpoint-every", 1024, "WAL records between automatic checkpoints (0 = only at shutdown; needs -data-dir)")
	fsync := flag.String("fsync", wal.FsyncAlways, "WAL fsync policy: always (per statement), interval (background flusher), never")
	maxSessions := flag.Int("max-sessions", 0, "concurrent session limit; connections past it get one rejection frame (0 = unlimited)")
	maxStmts := flag.Int("max-stmts", 0, "prepared statements per session (0 = default 64)")
	globalBudget := flag.Int("global-budget", 0, "deployment-wide resident-row pool shared by every query across all sessions; exhaustion spills (0 = off; composes with -mem-budget)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP address for /metrics and /healthz (empty = off)")
	maxFrame := flag.Int("max-frame", 0, "incoming wire-frame byte cap per session (0 = default 64 MiB, <0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 0, "per-frame read deadline; silent or trickling sessions past it are dropped (0 = off)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-response write deadline for stalled readers (0 = off)")
	flag.Parse()

	if *public == "" {
		log.Fatal("sdb-server: -public is required (run 'sdb keygen' at the data owner first)")
	}
	data, err := os.ReadFile(*public)
	if err != nil {
		log.Fatalf("sdb-server: %v", err)
	}
	params, err := secure.UnmarshalParams(data)
	if err != nil {
		log.Fatalf("sdb-server: %v", err)
	}

	opts := engine.Options{
		Parallelism: *par, ChunkSize: *chunk,
		MemBudgetRows: *memBudget, SpillDir: *spillDir,
		BudgetPool: spill.NewPool(*globalBudget),
	}

	var srv *server.Server
	var store *wal.Store
	var eng *engine.Engine
	if *dataDir != "" {
		catalog := storage.NewCatalog()
		t0 := time.Now()
		store, err = wal.Open(*dataDir, catalog, wal.Options{
			Fsync:           *fsync,
			CheckpointEvery: *checkpointEvery,
		})
		if err != nil {
			log.Fatalf("sdb-server: %v", err)
		}
		info := store.RecoveryInfo()
		fmt.Printf("sdb-server: recovered %d tables / %d rows from %s (LSN %d) in %s\n",
			info.Tables, info.Rows, *dataDir, info.LSN, time.Since(t0).Round(time.Millisecond))
		eng = engine.NewWithDurability(catalog, params.N, opts, store)
		srv = server.NewWithEngine(eng)
	} else {
		srv = server.NewWithOptions(params.N, opts)
	}

	srv.SetMaxSessions(*maxSessions)
	srv.SetMaxSessionStmts(*maxStmts)
	srv.SetMaxFrameBytes(frameCap(*maxFrame))
	srv.SetIdleTimeout(*idleTimeout)
	srv.SetWriteTimeout(*writeTimeout)

	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("sdb-server: %v", err)
	}
	fmt.Printf("sdb-server: listening on %s (modulus %d bits)\n", addr, params.N.BitLen())
	if *metricsAddr != "" {
		maddr, err := srv.ServeMetrics(*metricsAddr)
		if err != nil {
			log.Fatalf("sdb-server: metrics listener: %v", err)
		}
		fmt.Printf("sdb-server: metrics on http://%s/metrics\n", maddr)
	}

	// Graceful shutdown: stop accepting, abort in-flight queries, then
	// make everything durable — a checkpoint compacts the log so the next
	// start recovers from snapshots instead of a long replay.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	select {
	case sig := <-sigc:
		fmt.Printf("sdb-server: %s: shutting down\n", sig)
		srv.Close()
		<-done
	case err := <-done:
		if err != nil {
			log.Fatalf("sdb-server: %v", err)
		}
	}
	if store != nil {
		// The engine-level checkpoint takes the commit lock, so a write
		// racing the shutdown is either fully committed (logged and
		// published) before the snapshot is cut, or not in it at all.
		if err := eng.Checkpoint(); err != nil {
			log.Printf("sdb-server: final checkpoint: %v", err)
		}
		if err := store.Close(); err != nil {
			log.Printf("sdb-server: wal close: %v", err)
		}
	}
}
