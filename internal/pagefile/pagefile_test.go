package pagefile

import (
	"bytes"
	"errors"
	"testing"
)

func TestNewDefaults(t *testing.T) {
	f := New(0)
	if f.PageSize() != DefaultPageSize {
		t.Fatalf("PageSize = %d", f.PageSize())
	}
	if f.NumPages() != 0 {
		t.Fatalf("fresh file has %d pages", f.NumPages())
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	f := New(16)
	data := []byte("hello, page file")
	first, count, _ := f.AppendPages(data)
	if first != 0 || count != 1 {
		t.Fatalf("Append = %d, %d", first, count)
	}
	got, err := f.ReadInto(first, count, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Read = %q", got)
	}
}

func TestSpannedRecord(t *testing.T) {
	f := New(8)
	data := make([]byte, 20) // 3 pages at size 8
	for i := range data {
		data[i] = byte(i)
	}
	first, count, _ := f.AppendPages(data)
	if count != 3 {
		t.Fatalf("pageCount = %d, want 3", count)
	}
	got, err := f.ReadInto(first, count, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("spanned record corrupted")
	}
	if f.Stats().Reads != 3 || f.Stats().Writes != 3 {
		t.Fatalf("stats = %+v, want 3 reads / 3 writes", f.Stats())
	}
}

func TestMultipleRecords(t *testing.T) {
	f := New(8)
	a, ac, _ := f.AppendPages([]byte("aaaa"))
	b, bc, _ := f.AppendPages([]byte("bbbbbbbbbb")) // spans 2
	got, _ := f.ReadInto(a, ac, nil)
	if string(got) != "aaaa" {
		t.Fatalf("a = %q", got)
	}
	got, _ = f.ReadInto(b, bc, nil)
	if string(got) != "bbbbbbbbbb" {
		t.Fatalf("b = %q", got)
	}
}

func TestEmptyRecord(t *testing.T) {
	f := New(8)
	first, count, _ := f.AppendPages(nil)
	if count != 1 {
		t.Fatalf("empty record should take one page slot, got %d", count)
	}
	got, err := f.ReadInto(first, count, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty record read = %q, %v", got, err)
	}
}

func TestReadOutOfRange(t *testing.T) {
	f := New(8)
	f.AppendPages([]byte("x"))
	for _, tc := range [][2]int{{-1, 1}, {0, 0}, {0, 2}, {5, 1}} {
		if _, err := f.ReadInto(tc[0], tc[1], nil); err == nil {
			t.Errorf("ReadInto(%d, %d) should fail", tc[0], tc[1])
		}
	}
}

func TestResetStats(t *testing.T) {
	f := New(8)
	first, count, _ := f.AppendPages([]byte("abc"))
	f.ReadInto(first, count, nil)
	f.ResetStats()
	if s := f.Stats(); s.Reads != 0 || s.Writes != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
}

// TestCloseUnmapsAndRefuses: a File's pages are mapped chunks that Close
// gives back, whole, and every read and write after Close — page, view,
// record, overwrite, append, carve — returns ErrClosed instead of touching
// them.
func TestCloseUnmapsAndRefuses(t *testing.T) {
	base := MappedBytes()
	f := New(8)
	first, count, err := f.AppendPages([]byte("twenty bytes, 3 pgs."))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := f.Carve(5)
	if err != nil {
		t.Fatal(err)
	}
	copy(rec, "owned")
	if _, _, err := f.AppendOwned(rec); err != nil {
		t.Fatal(err)
	}
	if got := MappedBytes() - base; got != firstChunk {
		t.Fatalf("%d B mapped for two records, want one %d B chunk", got, firstChunk)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := MappedBytes() - base; got != 0 {
		t.Fatalf("%d B still mapped after Close", got)
	}
	calls := map[string]func() error{
		"ReadPage": func() error { _, err := f.ReadPage(first, nil); return err },
		"ViewInto": func() error { _, err := f.ViewInto(first, count, nil); return err },
		"ReadInto": func() error { _, err := f.ReadInto(first, count, nil); return err },
		"Overwrite": func() error {
			return f.Overwrite(first, count, make([]byte, 20))
		},
		"AppendPages": func() error { _, _, err := f.AppendPages([]byte("x")); return err },
		"AppendOwned": func() error { _, _, err := f.AppendOwned([]byte("x")); return err },
		"Carve":       func() error { _, err := f.Carve(1); return err },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want ErrClosed", name, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Errorf("a second Close: %v", err)
	}
}

// TestChunksGrowWithTheFile: a File maps a small first chunk, then chunks
// as large as all before it; a reservation maps the size it asks for in one
// chunk, which the writes that follow fill.
func TestChunksGrowWithTheFile(t *testing.T) {
	var c chunks
	defer c.release()
	for _, want := range []int{firstChunk, firstChunk, 2 * firstChunk, 4 * firstChunk} {
		before := c.size
		if _, err := c.carve(len(c.free) + 1); err != nil {
			t.Fatal(err)
		}
		if got := c.size - before; got != want {
			t.Fatalf("mapped a %d B chunk after %d B, want %d", got, before, want)
		}
	}

	f := New(4096)
	defer f.Close()
	const n, size = 3, 2064
	f.Reserve(n * size)
	if len(f.mem.all) != 1 || len(f.mem.all[0]) < n*size {
		t.Fatalf("a reservation of %d B mapped %d chunks", n*size, len(f.mem.all))
	}
	for i := 0; i < n; i++ {
		if _, err := f.Carve(size); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.mem.all) != 1 {
		t.Fatalf("the reserved records took %d chunks, want 1", len(f.mem.all))
	}
}
