package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRequestID: whatever X-TSQ-Request-ID a caller sends, the boundary
// adopts it verbatim if and only if validRequestID holds, and otherwise
// mints a fresh ID; the ID echoed on the response is the one the handler
// sees, and nothing panics.
func FuzzRequestID(f *testing.F) {
	for _, seed := range []string{
		"", "my-custom-id-42", "bad id with spaces", `quote"d`, `back\slash`,
		"tab\there", "é", "\x7f", "0123456789012345678901234567890123456789012345678901234567890123",
		"01234567890123456789012345678901234567890123456789012345678901234",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sent string) {
		var seen string
		h := timed("GET /fuzz", func(w http.ResponseWriter, r *http.Request) { seen = requestID(r) })
		r := httptest.NewRequest(http.MethodGet, "/fuzz", nil)
		r.Header.Set(requestIDHeader, sent)
		w := httptest.NewRecorder()
		h(w, r)
		echoed := w.Header().Get(requestIDHeader)
		if echoed != seen {
			t.Fatalf("echoed %q, handler saw %q", echoed, seen)
		}
		if validRequestID(sent) {
			if echoed != sent {
				t.Fatalf("valid ID %q not adopted: echoed %q", sent, echoed)
			}
			return
		}
		if echoed == sent || !validRequestID(echoed) {
			t.Fatalf("invalid ID %q: echoed %q, want a minted valid ID", sent, echoed)
		}
	})
}
