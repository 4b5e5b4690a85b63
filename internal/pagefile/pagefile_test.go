package pagefile

import (
	"bytes"
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
	first, count := f.Append(data)
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
	first, count := f.Append(data)
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
	a, ac := f.Append([]byte("aaaa"))
	b, bc := f.Append([]byte("bbbbbbbbbb")) // spans 2
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
	first, count := f.Append(nil)
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
	f.Append([]byte("x"))
	for _, tc := range [][2]int{{-1, 1}, {0, 0}, {0, 2}, {5, 1}} {
		if _, err := f.ReadInto(tc[0], tc[1], nil); err == nil {
			t.Errorf("ReadInto(%d, %d) should fail", tc[0], tc[1])
		}
	}
}

func TestResetStats(t *testing.T) {
	f := New(8)
	first, count := f.Append([]byte("abc"))
	f.ReadInto(first, count, nil)
	f.ResetStats()
	if s := f.Stats(); s.Reads != 0 || s.Writes != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
}
