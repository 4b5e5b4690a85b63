package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ParseLine parses one Prometheus text exposition sample line of the form
//
//	name{label="value",...} value
//
// returning the metric name, its labels (nil when bare), and the sample
// value. Comment and blank lines are the caller's to skip.
func ParseLine(line string) (name string, labels map[string]string, value float64, err error) {
	name, flat, value, err := parseSample(line)
	if err != nil || flat == nil {
		return name, nil, value, err
	}
	labels = make(map[string]string, len(flat)/2)
	for i := 0; i < len(flat); i += 2 {
		labels[flat[i]] = flat[i+1]
	}
	return name, labels, value, nil
}

// parseSample is ParseLine with the labels as flattened k,v pairs in
// their written order.
func parseSample(line string) (name string, labels []string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return "", nil, 0, fmt.Errorf("telemetry: unterminated label set in %q", line)
		}
		labels, err = parseLabels(rest[i+1 : end])
		if err != nil {
			return "", nil, 0, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return "", nil, 0, fmt.Errorf("telemetry: malformed sample %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("telemetry: bad metric name in %q", line)
	}
	v, err := parseValue(strings.TrimSpace(rest))
	if err != nil {
		return "", nil, 0, fmt.Errorf("telemetry: bad value in %q: %v", line, err)
	}
	return name, labels, v, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	case "NaN":
		return strconv.ParseFloat("NaN", 64)
	}
	return strconv.ParseFloat(s, 64)
}

// validMetricName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return s != ""
}

// validLabelName reports whether s matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(s string) bool {
	return validMetricName(s) && !strings.Contains(s, ":")
}

// parseLabels parses the inside of a label set into flattened k,v pairs:
// valid, distinct names, each pair followed by a comma or the end (a
// trailing comma is allowed).
func parseLabels(s string) ([]string, error) {
	out := []string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return nil, fmt.Errorf("telemetry: malformed labels %q", s)
		}
		key := s[:eq]
		if !validLabelName(key) {
			return nil, fmt.Errorf("telemetry: bad label name %q", key)
		}
		for i := 0; i < len(out); i += 2 {
			if out[i] == key {
				return nil, fmt.Errorf("telemetry: duplicate label %q", key)
			}
		}
		rest := s[eq+2:]
		var b strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i == len(rest) {
			return nil, fmt.Errorf("telemetry: unterminated label value in %q", s)
		}
		out = append(out, key, b.String())
		s = rest[i+1:]
		if s != "" && s[0] != ',' {
			return nil, fmt.Errorf("telemetry: want ',' between labels, have %q", s)
		}
		s = strings.TrimPrefix(s, ",")
	}
	return out, nil
}

// Samples is a parsed exposition document: sample values keyed by
// "name" or "name{k=v,...}" with labels in sorted key order.
type Samples map[string]float64

// Key builds the Samples lookup key for a metric name and flattened
// label k,v pairs.
func Key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	n := len(labels) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return labels[2*idx[a]] < labels[2*idx[b]] })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, j := range idx {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[2*j])
		b.WriteByte('=')
		b.WriteString(labels[2*j+1])
	}
	b.WriteByte('}')
	return b.String()
}

// ParseText parses a full Prometheus text exposition document strictly:
// every non-comment line must be a well-formed sample, and every TYPE
// comment must name a known metric type. It returns every sample.
func ParseText(r io.Reader) (Samples, error) {
	out := make(Samples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("telemetry: line %d: malformed TYPE comment %q", lineNo, line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("telemetry: line %d: unknown metric type %q", lineNo, fields[3])
				}
			}
			continue
		}
		name, labels, v, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %v", lineNo, err)
		}
		out[Key(name, labels...)] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
