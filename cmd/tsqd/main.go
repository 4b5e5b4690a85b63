// Command tsqd serves a tsq database over HTTP — the similarity-query
// engine of Rafiei & Mendelzon (SIGMOD 1997) as a long-lived concurrent
// service. It loads series from a binary snapshot (-snapshot) or a CSV
// (-data), serves the JSON API of repro/internal/server — including the
// streaming surface: window-sliding appends, standing-query monitors, and
// the /watch SSE event stream — and on shutdown (SIGINT/SIGTERM) writes
// the snapshot back if -snapshot was given. -retain bounds the events
// kept per monitor for gapless /watch reconnects. GET /metrics exposes
// the process's telemetry registry (query, cache, planner, shard, pool
// and stream families) in the Prometheus text format, and -pprof mounts
// net/http/pprof on a side listener, which is where the runtime (heap,
// goroutines, GC) is looked at, off the query port.
//
// Logging goes through log/slog's JSON handler on stderr, one object a
// line: the lifecycle (loaded store, listening, shutting down, snapshot
// saved) and one "request failed" line for each failed request, carrying
// the correlation ID (X-TSQ-Request-ID) its error body names. A request
// that succeeds writes no line. GET /traces serves the flight recorder:
// each {kind, strategy}'s slowest and most recent executions and every
// error, with their span trees.
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
	"io"
	"log/slog"
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
)

func main() {
	slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))

	err := run(os.Args[1:], os.Stderr)
	var usage usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
	case errors.As(err, &usage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "tsqd:", err)
		os.Exit(1)
	}
}

// usageError is a command line run refused and has already reported on
// stderr; main exits 2 for it, as the flag package does.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// run parses args, loads the store and serves it until SIGINT or SIGTERM,
// then saves the snapshot if -snapshot was given. Flag errors and usage go
// to stderr; everything else is logged through slog's default logger.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("tsqd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		dataPath = fs.String("data", "", "CSV file of series to load: name,v1,v2,...")
		snapPath = fs.String("snapshot", "", "binary snapshot to load at startup (if present) and write at shutdown")
		length   = fs.Int("length", 0, "series length when starting with an empty DB (no -data, no snapshot)")
		k        = fs.Int("k", 2, "DFT coefficients kept in the index")
		space    = fs.String("space", "polar", "feature space: polar or rect")
		cache    = fs.Int("cache", tsq.DefaultCacheSize, "query result cache entries (0 disables)")
		shards   = fs.Int("shards", 0, "hash-partitioned shards; queries fan out in parallel and writers lock only their shard (0 = a loaded snapshot's count, else 1; at most 65535)")
		retain   = fs.Int("retain", tsq.DefaultMonitorRetain, "events retained per monitor so reconnecting /watch clients can resume gaplessly (0 disables replay)")
		pprof    = fs.String("pprof", "", "address of a net/http/pprof side listener (e.g. localhost:6060; empty disables) — profiling stays off the query port")
		backing  = fs.String("backing", "", "directory for disk-backed storage: series and spectrum pages live in files there behind a fixed buffer pool, so the store can exceed RAM (empty = all in memory); the files are scratch storage, not a snapshot — pair with -snapshot for durability")
		cachePgs = fs.Int("cache-pages", 0, "buffer-pool frames per relation for -backing stores (0 = default 1024; at the default 4 KiB page size 1024 frames cache 4 MiB per relation)")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	db, origin, err := loadDB(*dataPath, *snapPath, *length, *k, *space, *shards, *backing, *cachePgs)
	if err != nil {
		return err
	}
	// Close releases the scratch page files of a -backing store (no-op in
	// memory mode). Deferred so every exit path — including load and listen
	// errors — cleans up.
	defer db.Close()
	// Collect the load's garbage — the parsed CSV or the snapshot's decode
	// buffers — before serving. The collector sets its next heap goal at
	// twice what it found live, and a cycle that fell inside the load
	// counted that transient data too: whether the served heap may grow to
	// twice the store or to twice the store plus its input then depended on
	// where in the load the last cycle happened to start.
	runtime.GC()
	opts := tsq.ServerOptions{CacheSize: *cache, MonitorRetain: *retain}
	if opts.CacheSize == 0 {
		opts.CacheSize = -1 // ServerOptions: negative disables, zero means default
	}
	if opts.MonitorRetain == 0 {
		opts.MonitorRetain = -1 // ServerOptions: negative retains none, zero means default
	}
	srv := tsq.NewServer(db, opts)
	slog.Info("loaded store",
		"series", srv.Len(), "length", srv.Length(), "origin", origin, "shards", db.Shards(),
		"disk_backed", db.PoolStats().DiskBacked)

	// Request contexts derive from baseCtx so long-lived /watch SSE
	// streams end promptly at shutdown — otherwise graceful Shutdown
	// would block on them until its deadline.
	baseCtx, closeStreams := context.WithCancel(context.Background())
	defer closeStreams()

	if pprofAddr := *pprof; pprofAddr != "" {
		go func() {
			slog.Info("pprof listening", "addr", pprofAddr)
			// The blank net/http/pprof import registered /debug/pprof on
			// the default mux; the main API handler below uses its own.
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				slog.Error("pprof listener failed", "err", err)
			}
		}()
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           server.New(srv),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		slog.Info("listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	slog.Info("shutting down")
	closeStreams() // end /watch subscribers so Shutdown can drain
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		slog.Error("shutdown failed", "err", err)
	}
	if *snapPath != "" {
		if err := saveSnapshot(srv, *snapPath); err != nil {
			return fmt.Errorf("saving snapshot: %w", err)
		}
		slog.Info("snapshot saved", "path", *snapPath)
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

// saveSnapshot writes the snapshot atomically and durably: a temp file in
// the snapshot's directory, synced, renamed over path, then the directory
// synced so that the rename itself survives a crash.
func saveSnapshot(srv *tsq.Server, path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := srv.WriteTo(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
