//go:build unix

package pagefile

import (
	"bytes"
	"syscall"
	"testing"
)

// TestDiskFileFailedAppendLeavesNoPages: an append whose write fails part
// way through its record — at a file-size limit inside the record's second
// page — leaves the file as it was: NumPages does not count the record, and
// the next append takes the same first page.
func TestDiskFileFailedAppendLeavesNoPages(t *testing.T) {
	const pageSize = 64
	d := newDisk(t, pageSize)
	if _, _, err := d.AppendPages(record(1, 100)); err != nil { // pages 0 and 1
		t.Fatal(err)
	}
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	lim := old
	lim.Cur = 3*pageSize + 10
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skipf("cannot limit the file size: %v", err)
	}
	_, _, err := d.AppendPages(record(2, 4*pageSize)) // pages 2 … 5: the limit falls in page 3
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("an append past the file-size limit succeeded")
	}
	if d.NumPages() != 2 {
		t.Fatalf("after the failed append NumPages = %d, want 2", d.NumPages())
	}
	first, count, err := d.AppendPages(record(3, 200))
	if err != nil {
		t.Fatal(err)
	}
	if first != 2 || count != 4 {
		t.Fatalf("the append after the failure took [%d, +%d), want [2, +4)", first, count)
	}
	pool, err := NewBufferPool(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := pool.Read(first, count); err != nil || !bytes.Equal(got, record(3, 200)) {
		t.Fatalf("the record after the failure reads back wrong (err %v)", err)
	}
}
