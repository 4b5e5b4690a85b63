package telemetry

import (
	"regexp"
	"strings"
	"testing"
)

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// TestParseTextStrict: ParseText accepts what WritePrometheus writes and
// refuses a label set that is not comma-separated, valid, distinct names.
func TestParseTextStrict(t *testing.T) {
	for _, tc := range []struct {
		doc  string
		want string // Samples key of the one sample; "" means refused
	}{
		{`m 3`, "m"},
		{`m{} 3`, "m"},
		{`m{a="1"} 3`, "m{a=1}"},
		{`m{b="2",a="1"} 3`, "m{a=1,b=2}"},
		{`m{a="1",} 3`, "m{a=1}"},
		{`m{_a9="x"} 3`, "m{_a9=x}"},
		{`m{a="x,y=\"z\"}"} 3`, `m{a=x,y="z"}}`},
		{`ns:m{a="1"} +Inf`, "ns:m{a=1}"},
		{`m{a="1"b="2"} 3`, ""},
		{`m{a="1" ,b="2"} 3`, ""},
		{`m{="x"} 3`, ""},
		{`m{a b="x"} 3`, ""},
		{` m{ a="x"} 3`, ""},
		{`m{9a="x"} 3`, ""},
		{`m{a:b="x"} 3`, ""},
		{`m{a="1",a="2"} 3`, ""},
		{`m{a="1",b="2",a="3"} 3`, ""},
		{`m{a="1"`, ""},
		{`m{a="1} 3`, ""},
		{`m{a=1} 3`, ""},
		{`{a="1"} 3`, ""},
		{`9m 3`, ""},
		{`m x`, ""},
	} {
		got, err := ParseText(strings.NewReader(tc.doc))
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("ParseText(%q) = %v, want an error", tc.doc, got)
		case tc.want != "" && err != nil:
			t.Errorf("ParseText(%q): %v", tc.doc, err)
		case tc.want != "":
			if _, ok := got[tc.want]; !ok || len(got) != 1 {
				t.Errorf("ParseText(%q) = %v, want the one key %q", tc.doc, got, tc.want)
			}
		}
	}
}

// FuzzParseText: whatever the document, ParseText never panics, and every
// sample line of a document it accepts has a valid metric name and only
// valid, distinct label names.
func FuzzParseText(f *testing.F) {
	r := NewRegistry()
	r.Counter("tsq_queries_total", "kind", "range", "outcome", "ok").Add(3)
	r.Gauge("tsq_store_series").Set(7)
	r.Histogram("tsq_query_duration_seconds", LatencyBuckets, "kind", "nn").Observe(0.01)
	r.Counter("esc_total", "q", "a\"b\\c\nd").Inc()
	var exposition strings.Builder
	if err := r.WritePrometheus(&exposition); err != nil {
		f.Fatal(err)
	}
	f.Add(exposition.String())
	for _, seed := range []string{
		`m{a="1"b="2"} 3`, `m{="x"} 3`, `m{a b="x"} 3`, `m{a="1",a="2"} 3`,
		`m{a="1",} NaN`, "# TYPE m counter\nm 1", "# TYPE m frob\n", `m{a="}"} 1`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		if _, err := ParseText(strings.NewReader(doc)); err != nil {
			return
		}
		for _, line := range strings.Split(doc, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			name, labels, _, err := parseSample(line)
			if err != nil {
				t.Fatalf("accepted document has an unparseable line %q: %v", line, err)
			}
			if !metricNameRE.MatchString(name) {
				t.Fatalf("accepted metric name %q in %q", name, line)
			}
			seen := map[string]bool{}
			for i := 0; i < len(labels); i += 2 {
				if !labelNameRE.MatchString(labels[i]) || seen[labels[i]] {
					t.Fatalf("accepted label name %q (seen before: %v) in %q", labels[i], seen[labels[i]], line)
				}
				seen[labels[i]] = true
			}
		}
	})
}
