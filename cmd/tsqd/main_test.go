package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	tsq "repro"
)

// serverOf is a server over a fresh store of the given series.
func serverOf(t *testing.T, batch []tsq.NamedSeries) *tsq.Server {
	t.Helper()
	db := tsq.MustOpen(tsq.Options{Length: 32})
	t.Cleanup(func() { db.Close() })
	if err := db.InsertAll(batch); err != nil {
		t.Fatal(err)
	}
	return tsq.NewServer(db, tsq.ServerOptions{})
}

// namesIn lists a directory's entries.
func namesIn(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// TestSaveSnapshotReplacesTheOld: a save over an existing snapshot leaves a
// file that loads with the new contents and no temp file beside it. (That
// the file and its directory reach the disk before saveSnapshot returns is
// not observable here.)
func TestSaveSnapshotReplacesTheOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.tsq")
	if err := saveSnapshot(serverOf(t, tsq.RandomWalks(5, 32, 1)), path); err != nil {
		t.Fatal(err)
	}
	fresh := tsq.RandomWalks(12, 32, 2)
	if err := saveSnapshot(serverOf(t, fresh), path); err != nil {
		t.Fatal(err)
	}
	if got := namesIn(t, dir); !slices.Equal(got, []string{"db.tsq"}) {
		t.Fatalf("the directory holds %v after the save", got)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db, err := tsq.ReadFrom(f)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Len() != len(fresh) {
		t.Fatalf("the saved snapshot holds %d series, want %d", db.Len(), len(fresh))
	}
	for _, s := range fresh {
		got, err := db.Series(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, s.Values) {
			t.Fatalf("series %s differs after the save", s.Name)
		}
	}
}

// TestFailedSaveKeepsTheOldSnapshot: a save that cannot create its temp
// file — here its name would pass the file-name limit — fails and leaves
// the old snapshot byte for byte, with nothing beside it.
func TestFailedSaveKeepsTheOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	// The snapshot's name leaves no room for ".tmp" and a random suffix.
	path := filepath.Join(dir, strings.Repeat("s", 252))
	var old bytes.Buffer
	if _, err := serverOf(t, tsq.RandomWalks(5, 32, 1)).WriteTo(&old); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := saveSnapshot(serverOf(t, tsq.RandomWalks(12, 32, 2)), path); err == nil {
		t.Fatal("the save succeeded")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old.Bytes()) {
		t.Fatal("the failed save changed the old snapshot")
	}
	if names := namesIn(t, dir); !slices.Equal(names, []string{filepath.Base(path)}) {
		t.Fatalf("the directory holds %v after the failed save", names)
	}
}

// TestRemovedFlagsAreUndefined: a setting that is gone is refused, not
// silently ignored. The spectrum refresh went when an append became an
// exact update, the slow-query threshold when the flight recorder behind
// /traces became the one record of slow reads, and the log level when a
// request that succeeds stopped logging.
func TestRemovedFlagsAreUndefined(t *testing.T) {
	for _, args := range [][]string{
		{"-refresh", "4"},
		{"-slow", "1us"},
		{"-log-level", "debug"},
	} {
		err := run(append(args, "-data", "walks.csv"), io.Discard)
		if want := "flag provided but not defined: " + args[0]; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run(%q) returned %v, want %q", args, err, want)
		}
	}
}
