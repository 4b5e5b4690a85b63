package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	tsq "repro"
	"repro/internal/server"
)

// TestSigtermWithClientsAttached: a SIGTERM stops tsqd while a /watch
// stream and an idle keep-alive connection are open. run returns well
// within its shutdown deadline and the snapshot it saved loads.
func TestSigtermWithClientsAttached(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "db.tsq")
	walks := tsq.RandomWalks(20, 32, 1)
	if err := saveSnapshot(serverOf(t, walks), snap); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-snapshot", snap}, io.Discard)
	}()
	c := &server.Client{BaseURL: "http://" + addr}
	// Once /healthz answers, run has registered for SIGTERM: the signal
	// below reaches it and not the default handler.
	for start := time.Now(); ; time.Sleep(20 * time.Millisecond) {
		if _, err := c.Health(); err == nil {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v", err)
		default:
		}
		if time.Since(start) > 15*time.Second {
			t.Fatal("tsqd did not answer /healthz within 15 s")
		}
	}

	mon, err := c.CreateMonitor(server.MonitorRequest{Kind: "range", Series: walks[0].Name, Eps: 2})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := c.Watch(context.Background(), mon.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	idle := &http.Transport{}
	defer idle.CloseIdleConnections()
	resp, err := (&http.Client{Transport: idle}).Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close() // the connection goes back to idle, still open

	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return within 15 s of SIGTERM")
	}

	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db, err := tsq.ReadFrom(f)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Len() != len(walks) {
		t.Fatalf("the saved snapshot holds %d series, want %d", db.Len(), len(walks))
	}
}
