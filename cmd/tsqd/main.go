// Command tsqd serves a tsq database over HTTP — the similarity-query
// engine of Rafiei & Mendelzon (SIGMOD 1997) as a long-lived concurrent
// service. It loads series from a binary snapshot (-snapshot) or a CSV
// (-data), serves the JSON API of repro/internal/server — including the
// streaming surface: window-sliding appends, standing-query monitors, and
// the /watch SSE event stream — and on shutdown (SIGINT/SIGTERM) writes
// the snapshot back if -snapshot was given. -retain bounds the events
// kept per monitor for gapless /watch reconnects. GET /metrics exposes
// the process's telemetry registry (query, cache, planner, shard, and
// stream counters plus runtime gauges) in the Prometheus text format,
// and -pprof mounts net/http/pprof on a side listener so profiling
// stays off the query port.
//
// Logging is structured: every line is one JSON object on stderr,
// leveled by -log-level, and request lines carry the request's
// correlation ID (X-TSQ-Request-ID). The newest lines are also kept in
// memory and served from GET /logs. -slow sets the slow-query threshold
// behind /stats?slow=1 and GET /traces.
//
// Usage:
//
//	tsqgen -count 500 -length 128 > walks.csv
//	tsqd -data walks.csv -addr :8080
//	tsqd -snapshot db.tsq -length 128        # empty DB, persisted on exit
//	tsqd -data walks.csv -shards 8           # hash-partitioned, parallel fan-out
//	tsqd -data walks.csv -retain 1024        # deeper /watch replay buffer
//	tsqd -data big.csv -backing /var/tsq -cache-pages 2048  # larger-than-RAM store
//	tsqd -data walks.csv -pprof localhost:6060  # profiling side listener
//	tsqd -data walks.csv -slow 5ms           # lower slow-query threshold
//	tsqd -data walks.csv -log-level debug    # verbose JSON logs
//
//	curl localhost:8080/healthz
//	curl -X POST localhost:8080/query \
//	    -d '{"q": "RANGE SERIES '\''W0007'\'' EPS 2 TRANSFORM mavg(20)"}'
//	curl -X POST localhost:8080/series/W0007/append -d '{"values": [101.5]}'
//	curl -N 'localhost:8080/watch?monitor=1'
//
// See the repository README for the full endpoint list.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only by the -pprof side listener
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	tsq "repro"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/tlog"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		dataPath = flag.String("data", "", "CSV file of series to load: name,v1,v2,...")
		snapPath = flag.String("snapshot", "", "binary snapshot to load at startup (if present) and write at shutdown")
		length   = flag.Int("length", 0, "series length when starting with an empty DB (no -data, no snapshot)")
		k        = flag.Int("k", 2, "DFT coefficients kept in the index")
		space    = flag.String("space", "polar", "feature space: polar or rect")
		cache    = flag.Int("cache", tsq.DefaultCacheSize, "query result cache entries (0 disables)")
		shards   = flag.Int("shards", 0, "hash-partitioned shards; queries fan out in parallel and writers lock only their shard (0 = a loaded snapshot's count, else 1)")
		retain   = flag.Int("retain", tsq.DefaultMonitorRetain, "events retained per monitor so reconnecting /watch clients can resume gaplessly (0 disables replay)")
		pprof    = flag.String("pprof", "", "address of a net/http/pprof side listener (e.g. localhost:6060; empty disables) — profiling stays off the query port")
		slow     = flag.Duration("slow", 0, "slow-query threshold: queries at or above it are retained with their trace spans in /stats?slow=1 and GET /traces (0 = default 25ms; negative disables)")
		logLevel = flag.String("log-level", "info", "minimum log severity: debug, info, warn, or error")
		backing  = flag.String("backing", "", "directory for disk-backed storage: series and spectrum pages live in files there behind a fixed buffer pool, so the store can exceed RAM (empty = all in memory); the files are scratch storage, not a snapshot — pair with -snapshot for durability")
		cachePgs = flag.Int("cache-pages", 0, "buffer-pool frames per relation for -backing stores (0 = default 1024; at the default 4 KiB page size 1024 frames cache 4 MiB per relation)")
	)
	flag.Parse()

	min, err := tlog.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsqd:", err)
		os.Exit(1)
	}
	tlog.SetLevel(min)
	tlog.SetOutput(os.Stderr)

	if err := run(*addr, *dataPath, *snapPath, *length, *k, *space, *cache, *shards, *retain, *pprof, *slow, *backing, *cachePgs); err != nil {
		fmt.Fprintln(os.Stderr, "tsqd:", err)
		os.Exit(1)
	}
}

func run(addr, dataPath, snapPath string, length, k int, space string, cacheSize, shards, retain int, pprofAddr string, slow time.Duration, backing string, cachePages int) error {
	db, origin, err := loadDB(dataPath, snapPath, length, k, space, shards, backing, cachePages)
	if err != nil {
		return err
	}
	// Close releases the scratch page files of a -backing store (no-op in
	// memory mode). Deferred so every exit path — including load and listen
	// errors — cleans up.
	defer db.Close()
	if cacheSize == 0 {
		cacheSize = -1 // ServerOptions: negative disables, zero means default
	}
	if retain == 0 {
		retain = -1 // ServerOptions: negative retains none, zero means default
	}
	srv := tsq.NewServer(db, tsq.ServerOptions{CacheSize: cacheSize, MonitorRetain: retain, SlowThreshold: slow})
	tlog.Info("loaded store",
		"series", srv.Len(), "length", srv.Length(), "origin", origin, "shards", db.Shards(),
		"disk_backed", db.PoolStats().DiskBacked)

	// Request contexts derive from baseCtx so long-lived /watch SSE
	// streams end promptly at shutdown — otherwise graceful Shutdown
	// would block on them until its deadline.
	baseCtx, closeStreams := context.WithCancel(context.Background())
	defer closeStreams()

	if pprofAddr != "" {
		go func() {
			tlog.Info("pprof listening", "addr", pprofAddr)
			// The blank net/http/pprof import registered /debug/pprof on
			// the default mux; the main API handler below uses its own.
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				tlog.Error("pprof listener failed", "err", err)
			}
		}()
	}
	go sampleRuntime(baseCtx, 10*time.Second)
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           server.New(srv),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		tlog.Info("listening", "addr", addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	tlog.Info("shutting down")
	closeStreams() // end /watch subscribers so Shutdown can drain
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		tlog.Error("shutdown failed", "err", err)
	}
	if snapPath != "" {
		if err := saveSnapshot(srv, snapPath); err != nil {
			return fmt.Errorf("saving snapshot: %w", err)
		}
		tlog.Info("snapshot saved", "path", snapPath)
	}
	return nil
}

// loadDB builds the database, preferring an existing snapshot over CSV
// data over an empty store. shards: 0 honors a loaded snapshot's recorded
// shard count (and means 1 for fresh stores); n >= 1 forces n shards —
// re-sharding a snapshot on load is always possible because partition
// assignment is a pure hash of the series name.
func loadDB(dataPath, snapPath string, length, k int, space string, shards int, backing string, cachePages int) (*tsq.DB, string, error) {
	if snapPath != "" {
		f, err := os.Open(snapPath)
		switch {
		case err == nil:
			defer f.Close()
			db, err := tsq.ReadFromOptions(f, tsq.Options{
				Shards: shards, Backing: backing, CachePages: cachePages,
			})
			if err != nil {
				return nil, "", fmt.Errorf("snapshot %s: %w", snapPath, err)
			}
			return db, snapPath, nil
		case !errors.Is(err, os.ErrNotExist):
			return nil, "", err
		}
	}

	if dataPath != "" {
		batch, err := tsq.ReadCSVFile(dataPath)
		if err != nil {
			return nil, "", err
		}
		db, err := openEmpty(len(batch[0].Values), k, space, shards, backing, cachePages)
		if err != nil {
			return nil, "", err
		}
		if err := db.InsertBulk(batch); err != nil {
			db.Close()
			return nil, "", err
		}
		return db, dataPath, nil
	}

	if length <= 0 {
		return nil, "", fmt.Errorf("-length is required when starting without -data or an existing snapshot")
	}
	db, err := openEmpty(length, k, space, shards, backing, cachePages)
	if err != nil {
		return nil, "", err
	}
	return db, "empty store", nil
}

func openEmpty(length, k int, space string, shards int, backing string, cachePages int) (*tsq.DB, error) {
	sp, err := tsq.ParseSpace(space)
	if err != nil {
		return nil, err
	}
	return tsq.Open(tsq.Options{
		Length: length, K: k, Space: sp, Shards: shards,
		Backing: backing, CachePages: cachePages,
	})
}

func init() {
	telemetry.Describe("tsq_goroutines", "Live goroutines.")
	telemetry.Describe("tsq_heap_alloc_bytes", "Bytes of allocated heap objects.")
	telemetry.Describe("tsq_heap_objects", "Allocated heap objects.")
	telemetry.Describe("tsq_gc_pause_last_seconds", "Most recent GC stop-the-world pause.")
	telemetry.Describe("tsq_gc_cycles_total", "Completed GC cycles.")
}

// sampleRuntime periodically feeds process health — goroutine count, heap
// size, GC activity — into the telemetry registry, so /metrics shows the
// runtime next to the query metrics without a scrape-time ReadMemStats.
func sampleRuntime(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		telemetry.GaugeOf("tsq_goroutines").Set(float64(runtime.NumGoroutine()))
		telemetry.GaugeOf("tsq_heap_alloc_bytes").Set(float64(ms.HeapAlloc))
		telemetry.GaugeOf("tsq_heap_objects").Set(float64(ms.HeapObjects))
		telemetry.GaugeOf("tsq_gc_pause_last_seconds").Set(float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9)
		telemetry.GaugeOf("tsq_gc_cycles_total").Set(float64(ms.NumGC))
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// saveSnapshot writes the snapshot atomically: temp file, then rename.
func saveSnapshot(srv *tsq.Server, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := srv.WriteTo(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
