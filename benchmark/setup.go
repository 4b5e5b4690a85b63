package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	tsq "repro"
)

// pageSize is the store's default page size, used to size the disk
// workload's buffer pool against its relations.
const pageSize = 4096

// prepared is the untimed preparation the timed set-ups start from.
type prepared struct {
	dir   string
	tsqd  string // path of the tsqd binary, for child workloads
	csv   string
	batch []tsq.NamedSeries
	// snapshot is where the store's TSQ3 snapshot goes: written here for
	// the disk workload to adopt, by a discarded tsqd child on its way out
	// for the child workloads.
	snapshot string
	// snapshotBytes and userBytes give snapshot_bytes_per_user_byte.
	snapshotBytes, userBytes int64
	cachePages               int
}

func namedBatch(d *dataset) []tsq.NamedSeries {
	batch := make([]tsq.NamedSeries, len(d.names))
	for i := range batch {
		batch[i] = tsq.NamedSeries{Name: d.names[i], Values: d.values[i]}
	}
	return batch
}

// prepare does what precedes "nothing": writes the CSV a tsqd child will
// load, or builds the store once to write the snapshot the disk workload
// will adopt.
func prepare(s spec, in *inputs, dir, tsqd string) (*prepared, error) {
	p := &prepared{dir: dir, tsqd: tsqd, userBytes: int64(s.count) * int64(s.length) * 8}
	p.snapshot = filepath.Join(dir, "store.tsq3")
	switch {
	case s.child:
		p.csv = filepath.Join(dir, "data.csv")
		if err := writeCSV(p.csv, in.data); err != nil {
			return nil, err
		}
	case s.disk:
		p.batch = namedBatch(in.data)
		db, err := openLoaded(s, p.batch)
		if err != nil {
			return nil, err
		}
		f, err := os.Create(p.snapshot)
		if err != nil {
			return nil, err
		}
		p.snapshotBytes, err = db.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		db.Close()
		if err != nil {
			return nil, fmt.Errorf("writing snapshot: %w", err)
		}
		// A quarter of the time-domain relation's pages, per relation.
		p.cachePages = int((p.userBytes + pageSize - 1) / pageSize / 4)
	default:
		p.batch = namedBatch(in.data)
	}
	return p, nil
}

func openLoaded(s spec, batch []tsq.NamedSeries) (*tsq.DB, error) {
	db, err := tsq.Open(tsq.Options{Length: s.length, Shards: s.shards})
	if err != nil {
		return nil, err
	}
	if err := db.InsertBulk(batch); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// setUp brings one store from nothing to "first query answerable" and
// reports how long that took. What it covers is the workload's own:
// spawn → /healthz (plus monitor registration when streaming) for a tsqd
// child, Open + InsertBulk in process, ReadFromOptions for the disk store.
func setUp(s spec, in *inputs, p *prepared, n int) (store, time.Duration, error) {
	start := time.Now()
	switch {
	case s.child:
		snapshot := ""
		if n == 0 {
			snapshot = p.snapshot // sized and removed by discard
		}
		h, err := spawnTsqd(p.tsqd, p.csv, filepath.Join(p.dir, fmt.Sprintf("tsqd-%d.log", n)), s.shards, snapshot)
		if err != nil {
			return nil, 0, err
		}
		if s.monitors > 0 {
			if err := h.registerMonitors(s, in); err != nil {
				h.close()
				return nil, 0, err
			}
		}
		took := time.Since(start)
		h.reqs = renderReads(s, in)
		return h, took, nil
	case s.disk:
		f, err := os.Open(p.snapshot)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		db, err := tsq.ReadFromOptions(f, tsq.Options{
			Shards:     s.shards,
			Backing:    filepath.Join(p.dir, fmt.Sprintf("backing-%d", n)),
			CachePages: p.cachePages,
		})
		if err != nil {
			return nil, 0, fmt.Errorf("adopting snapshot: %w", err)
		}
		took := time.Since(start)
		return newLocalStore(db, s, in), took, nil
	default:
		db, err := openLoaded(s, p.batch)
		if err != nil {
			return nil, 0, err
		}
		took := time.Since(start)
		return newLocalStore(db, s, in), took, nil
	}
}

// discard closes a store whose set-up was timed and is not kept. The
// first one of a resident workload also tells how large a TSQ3 snapshot
// of the freshly loaded store is: an in-process store is written to a
// counting sink, a tsqd child writes its -snapshot file while shutting
// down. (The disk workload's snapshot was written during preparation.)
func (p *prepared) discard(st store, n int) error {
	if n > 0 || p.snapshotBytes > 0 {
		st.close()
		return nil
	}
	var err error
	switch st := st.(type) {
	case *localStore:
		p.snapshotBytes, err = st.db.WriteTo(io.Discard)
		st.close()
	case *httpStore:
		st.close()
		var fi os.FileInfo
		if fi, err = os.Stat(p.snapshot); err == nil {
			p.snapshotBytes = fi.Size()
			err = os.Remove(p.snapshot)
		}
	}
	if err != nil {
		return fmt.Errorf("sizing the snapshot: %w", err)
	}
	return nil
}

// setUpRepeatedly runs the timed set-ups back to back, keeps the last
// store and returns every set-up time. An in-process host restarts its
// resident-set high-water mark before the kept set-up and collects
// garbage after it, so neither preparation nor a discarded store is
// charged to the measured one.
func setUpRepeatedly(s spec, in *inputs, p *prepared) (store, []float64, error) {
	var times []float64
	for n := 0; ; n++ {
		last := n == s.setups-1
		if s.disk {
			// Let the kernel finish writing the previous store's page
			// files (and the snapshot) back before this set-up is timed.
			syscall.Sync()
		}
		if last && !s.child {
			resetPeakRSS()
		}
		st, took, err := setUp(s, in, p, n)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, took.Seconds())
		if last {
			if s.disk {
				syscall.Sync()
			}
			if !s.child {
				runtime.GC()
			}
			return st, times, nil
		}
		if err := p.discard(st, n); err != nil {
			return nil, nil, err
		}
	}
}
