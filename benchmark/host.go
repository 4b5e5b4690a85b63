package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	tsq "repro"
)

// procs pins GOMAXPROCS in the load generator and in every store host, so
// a run means the same thing on a larger machine.
const procs = 2

// cleanups holds what must be undone on every exit path — children
// killed, scratch directories removed — including SIGINT and a failed
// oracle check.
var cleanups struct {
	sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanups.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.Unlock()
}

func runCleanups() {
	cleanups.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// cleanupOnSignal runs the cleanups and exits when the run is interrupted.
func cleanupOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		runCleanups()
		os.Exit(130)
	}()
}

// reply is one read's answer as the load generator received it. HTTP
// replies keep the body and are decoded after the round, outside timing.
type reply struct {
	body    []byte
	matches []tsq.Match
}

// hits decodes a reply into the oracle's vocabulary.
func (r reply) hits() ([]hit, error) {
	if r.body == nil {
		out := make([]hit, len(r.matches))
		for i, m := range r.matches {
			out[i] = hit{name: m.Name, dist: m.Distance}
		}
		return out, nil
	}
	var resp struct {
		Matches []struct {
			Name     string  `json:"name"`
			Distance float64 `json:"distance"`
		} `json:"matches"`
	}
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	out := make([]hit, len(resp.Matches))
	for i, m := range resp.Matches {
		out[i] = hit{name: m.Name, dist: m.Distance}
	}
	return out, nil
}

// store is a set-up store as the load generator sees it.
type store interface {
	// read executes the i-th read of the run's list.
	read(i int) (reply, error)
	append(name string, points []float64) error
	// peakRSSMB is the high-water resident set of the process hosting
	// the store.
	peakRSSMB() (float64, error)
	close()
}

// ---- in-process store ----

type localStore struct {
	db    *tsq.DB
	srv   *tsq.Server
	in    *inputs
	mavgs map[int]tsq.Transform
}

func newLocalStore(db *tsq.DB, s spec, in *inputs) *localStore {
	cache := -1
	if s.cache {
		cache = 0
	}
	ls := &localStore{
		db:    db,
		srv:   tsq.NewServer(db, tsq.ServerOptions{CacheSize: cache}),
		in:    in,
		mavgs: map[int]tsq.Transform{},
	}
	for i := range in.reads {
		if w := in.reads[i].mavg; w > 0 {
			ls.mavgs[w] = tsq.MovingAverage(w)
		}
	}
	return ls
}

// strategies maps an op's pinned strategy onto the library's typed API,
// with and without the transformation on both sides.
var strategies = map[string][2][]tsq.QueryOpt{
	"":      {{tsq.With(tsq.UseAuto)}, {tsq.With(tsq.UseAuto), tsq.TransformBoth()}},
	"index": {{tsq.With(tsq.UseIndex)}, {tsq.With(tsq.UseIndex), tsq.TransformBoth()}},
	"scan":  {{tsq.With(tsq.UseScan)}, {tsq.With(tsq.UseScan), tsq.TransformBoth()}},
}

func (ls *localStore) opts(o *op) []tsq.QueryOpt {
	if o.mavg > 0 {
		return strategies[o.using][1]
	}
	return strategies[o.using][0]
}

func (ls *localStore) transform(o *op) tsq.Transform {
	if o.mavg > 0 {
		return ls.mavgs[o.mavg]
	}
	return tsq.Identity()
}

func (ls *localStore) read(i int) (reply, error) {
	o := &ls.in.reads[i]
	m, _, err := serverRead(ls.srv, ls.in.data, o, ls.transform(o), ls.opts(o))
	return reply{matches: m}, err
}

// serverRead issues one typed read against a tsq.Server or a tsq.DB.
func serverRead(srv typedAPI, d *dataset, o *op, t tsq.Transform, opts []tsq.QueryOpt) ([]tsq.Match, tsq.Stats, error) {
	switch {
	case o.kind == opNN && o.values != nil:
		return srv.NN(o.values, o.k, t, opts...)
	case o.kind == opNN:
		return srv.NNByName(d.names[o.series], o.k, t, opts...)
	case o.values != nil:
		return srv.Range(o.values, o.eps, t, opts...)
	default:
		return srv.RangeByName(d.names[o.series], o.eps, t, opts...)
	}
}

func (ls *localStore) append(name string, points []float64) error {
	return ls.srv.Append(name, points)
}

func (ls *localStore) peakRSSMB() (float64, error) { return procPeakRSSMB("self") }

func (ls *localStore) close() { ls.db.Close() }

// resetPeakRSS restarts this process's resident-set high-water mark, so
// an in-process store's peak does not include the untimed preparation
// before it. Where the kernel refuses, the peak simply includes it.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func procPeakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// ---- tsqd child store ----

// httpReq is one pre-rendered request: bodies are built before the round
// so the load generator spends its timed path on the wire only.
type httpReq struct {
	path string
	body []byte
}

// conn is one keep-alive HTTP connection with its own transport, so a
// closed loop on it never shares a socket with another loop.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *conn) post(path string, body []byte) ([]byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

func (c *conn) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return out, nil
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// renderReads pre-renders a read list for the HTTP surface: statements go
// to POST /query, typed reads to /query/range and /query/nn (the typed
// endpoints are the ones whose cache entries survive unrelated appends).
func renderReads(s spec, in *inputs) []httpReq {
	out := make([]httpReq, len(in.reads))
	for i := range in.reads {
		o := &in.reads[i]
		if s.statements {
			body, _ := json.Marshal(map[string]string{"q": statement(in.data, o)})
			out[i] = httpReq{path: "/query", body: body}
			continue
		}
		req := map[string]any{}
		if o.values != nil {
			req["values"] = o.values
		} else {
			req["series"] = in.data.names[o.series]
		}
		if o.mavg > 0 {
			req["transform"] = fmt.Sprintf("mavg(%d)", o.mavg)
			req["both"] = true
		}
		if o.using != "" {
			req["using"] = o.using
		}
		path := "/query/range"
		if o.kind == opNN {
			path = "/query/nn"
			req["k"] = o.k
		} else {
			req["eps"] = o.eps
		}
		body, _ := json.Marshal(req)
		out[i] = httpReq{path: path, body: body}
	}
	return out
}

// httpStore drives a store over HTTP: a tsqd child, or (in the traced
// run) an in-process handler on a loopback listener.
type httpStore struct {
	reads   *conn
	appends *conn
	reqs    []httpReq
	// respBytes sums reply body sizes, for server.resp_bytes_per_op.
	respBytes atomic.Int64

	cmd *exec.Cmd // nil for an in-process handler
	// stop ends what the store owns: the SSE subscriber, then the child
	// or the listener.
	stop func()
	// events counts the enter/leave messages the /watch subscribers drained.
	events atomic.Int64
}

func (h *httpStore) read(i int) (reply, error) {
	r := &h.reqs[i]
	body, err := h.reads.post(r.path, r.body)
	h.respBytes.Add(int64(len(body)))
	return reply{body: body}, err
}

func (h *httpStore) append(name string, points []float64) error {
	body, _ := json.Marshal(map[string]any{"values": points})
	_, err := h.appends.post("/series/"+name+"/append", body)
	return err
}

func (h *httpStore) peakRSSMB() (float64, error) {
	if h.cmd == nil {
		return procPeakRSSMB("self")
	}
	return procPeakRSSMB(strconv.Itoa(h.cmd.Process.Pid))
}

func (h *httpStore) close() {
	h.reads.close()
	h.appends.close()
	h.stop()
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawnTsqd starts a tsqd child on a free loopback port and returns once
// /healthz answers. The child is killed on every exit path.
func spawnTsqd(bin, csv, logPath string, shards int, snapshot string) (*httpStore, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-data", csv, "-addr", addr, "-shards", strconv.Itoa(shards))
	if snapshot != "" {
		// Absent at start-up, so the child still loads the CSV; it writes
		// the file while shutting down.
		cmd.Args = append(cmd.Args, "-snapshot", snapshot)
	}
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// The child writes its per-request log lines straight to a scratch
	// file: a pipe would make the load generator copy them.
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logFile
	err = cmd.Start()
	logFile.Close()
	if err != nil {
		return nil, fmt.Errorf("starting tsqd: %w", err)
	}
	logHead := func() string {
		b, _ := os.ReadFile(logPath)
		return string(b[:min(len(b), 2048)])
	}
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }()
	var once sync.Once
	kill := func() {
		once.Do(func() {
			cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-exited:
			case <-time.After(30 * time.Second):
				cmd.Process.Kill()
				<-exited
			}
		})
	}
	onExit(kill)

	base := "http://" + addr
	h := &httpStore{reads: newConn(base), appends: newConn(base), cmd: cmd, stop: kill}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := h.reads.get("/healthz"); err == nil {
			return h, nil
		}
		select {
		case <-exited:
			return nil, fmt.Errorf("tsqd exited during start-up: %s", logHead())
		default:
		}
		if time.Now().After(deadline) {
			kill()
			return nil, fmt.Errorf("tsqd not healthy after 60s: %s", logHead())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// registerMonitors installs the standing range queries of a streaming
// workload on the most popular series and subscribes one SSE watcher per
// monitor, each draining its events for the life of the store.
func (h *httpStore) registerMonitors(s spec, in *inputs) error {
	ctx, cancel := context.WithCancel(context.Background())
	var watchers sync.WaitGroup
	stop := h.stop
	h.stop = func() {
		cancel()
		watchers.Wait()
		stop()
	}
	sse := &http.Client{Transport: &http.Transport{}}
	for r := 0; r < s.monitors; r++ {
		body, _ := json.Marshal(map[string]any{
			"kind": "range", "series": in.data.names[in.popular.top(r)], "eps": s.monitorEps,
		})
		out, err := h.appends.post("/monitors", body)
		if err != nil {
			return err
		}
		var made struct {
			ID int64 `json:"id"`
		}
		if err := json.Unmarshal(out, &made); err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.reads.base+"/watch?monitor="+strconv.FormatInt(made.ID, 10), nil)
		if err != nil {
			return err
		}
		resp, err := sse.Do(req)
		if err != nil {
			return err
		}
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			defer resp.Body.Close()
			// The first message lists the monitor's members on one line.
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(nil, 16<<20)
			for sc.Scan() {
				if kind, ok := strings.CutPrefix(sc.Text(), "event: "); ok && kind != "init" {
					h.events.Add(1)
				}
			}
		}()
	}
	return nil
}

// scratch makes the run's private directory under out/ and arranges for
// its removal; a run leaves nothing else behind.
func scratch(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return "", err
	}
	onExit(func() { os.RemoveAll(dir) })
	return filepath.Abs(dir)
}

// writeCSV writes the generated series in tsqd's -data format.
func writeCSV(path string, d *dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var num []byte
	for i, name := range d.names {
		w.WriteString(name)
		for _, v := range d.values[i] {
			w.WriteByte(',')
			num = strconv.AppendFloat(num[:0], v, 'f', -1, 64)
			w.Write(num)
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
