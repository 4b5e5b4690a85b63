// Package tlog is a dependency-free leveled JSON logger with a bounded
// in-memory ring. Every line is one JSON object — timestamp, level,
// message, then caller-supplied key/value pairs — so log output is
// machine-greppable and request IDs correlate log lines with retained
// traces. The ring retains the newest records regardless of
// where (or whether) lines are written, which is what backs tsqd's
// GET /logs without any file or external collector.
//
// The package-level Default logger writes to io.Discard until a binary
// calls SetOutput — so libraries and tests that trigger logging stay
// silent, while tsqd points it at stderr.
package tlog

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log severities.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the level's lowercase name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "level(" + strconv.Itoa(int(l)) + ")"
	}
}

// ParseLevel parses a level name ("debug", "info", "warn", "error").
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return LevelInfo, fmt.Errorf("tlog: unknown level %q (want debug, info, warn, or error)", s)
	}
}

// Record is one retained log line.
type Record struct {
	When  time.Time
	Level Level
	Msg   string
	// Line is the rendered JSON object (no trailing newline).
	Line string
}

// Logger renders leveled JSON lines to an output writer and retains the
// newest records in a bounded ring. Safe for concurrent use.
type Logger struct {
	min atomic.Int32

	mu   sync.Mutex
	out  io.Writer
	ring []Record // ring, len == cap once warm
	pos  int
	cap  int
}

// New builds a Logger writing records at or above min to out, retaining
// the newest ringSize records in memory (<= 0 retains none).
func New(out io.Writer, min Level, ringSize int) *Logger {
	if ringSize < 0 {
		ringSize = 0
	}
	l := &Logger{out: out, cap: ringSize}
	l.min.Store(int32(min))
	if ringSize > 0 {
		l.ring = make([]Record, 0, ringSize)
	}
	return l
}

// SetOutput redirects rendered lines (the ring is unaffected).
func (l *Logger) SetOutput(w io.Writer) {
	l.mu.Lock()
	l.out = w
	l.mu.Unlock()
}

// SetLevel changes the minimum recorded level.
func (l *Logger) SetLevel(min Level) { l.min.Store(int32(min)) }

// MinLevel returns the current minimum recorded level.
func (l *Logger) MinLevel() Level { return Level(l.min.Load()) }

// Log renders one line at the given level: msg, then kv as alternating
// key/value pairs (an odd trailing key is dropped). Below the minimum
// level it costs one atomic load.
func (l *Logger) Log(level Level, msg string, kv ...any) {
	if level < Level(l.min.Load()) {
		return
	}
	now := time.Now()
	var b strings.Builder
	b.Grow(96)
	b.WriteString(`{"ts":"`)
	b.WriteString(now.UTC().Format(time.RFC3339Nano))
	b.WriteString(`","level":"`)
	b.WriteString(level.String())
	b.WriteString(`","msg":`)
	appendJSONString(&b, msg)
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		b.WriteByte(',')
		appendJSONString(&b, key)
		b.WriteByte(':')
		appendJSONValue(&b, kv[i+1])
	}
	b.WriteByte('}')
	rec := Record{When: now, Level: level, Msg: msg, Line: b.String()}

	l.mu.Lock()
	if l.out != nil && l.out != io.Discard {
		_, _ = io.WriteString(l.out, rec.Line+"\n")
	}
	if l.cap > 0 {
		if len(l.ring) < l.cap {
			l.ring = append(l.ring, rec)
		} else {
			l.ring[l.pos] = rec
			l.pos = (l.pos + 1) % l.cap
		}
	}
	l.mu.Unlock()
}

// Records returns up to n of the newest retained records at or above
// min, oldest first (n <= 0 means all retained).
func (l *Logger) Records(n int, min Level) []Record {
	l.mu.Lock()
	ordered := make([]Record, 0, len(l.ring))
	if len(l.ring) == l.cap && l.cap > 0 {
		ordered = append(ordered, l.ring[l.pos:]...)
		ordered = append(ordered, l.ring[:l.pos]...)
	} else {
		ordered = append(ordered, l.ring...)
	}
	l.mu.Unlock()
	out := ordered[:0]
	for _, r := range ordered {
		if r.Level >= min {
			out = append(out, r)
		}
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// appendJSONValue renders common value types without reflection;
// anything else goes through encoding/json (and on failure its
// fmt.Sprint form, quoted).
func appendJSONValue(b *strings.Builder, v any) {
	switch x := v.(type) {
	case nil:
		b.WriteString("null")
	case string:
		appendJSONString(b, x)
	case bool:
		b.WriteString(strconv.FormatBool(x))
	case int:
		b.WriteString(strconv.Itoa(x))
	case int64:
		b.WriteString(strconv.FormatInt(x, 10))
	case uint64:
		b.WriteString(strconv.FormatUint(x, 10))
	case float64:
		if math.IsInf(x, 0) || math.IsNaN(x) {
			appendJSONString(b, strconv.FormatFloat(x, 'g', -1, 64))
			return
		}
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	case time.Duration:
		appendJSONString(b, x.String())
	case time.Time:
		appendJSONString(b, x.UTC().Format(time.RFC3339Nano))
	case error:
		appendJSONString(b, x.Error())
	default:
		raw, err := json.Marshal(v)
		if err != nil {
			appendJSONString(b, fmt.Sprint(v))
			return
		}
		b.Write(raw)
	}
}

func appendJSONString(b *strings.Builder, s string) {
	raw, err := json.Marshal(s)
	if err != nil { // cannot happen for strings; keep the line well-formed anyway
		b.WriteString(`""`)
		return
	}
	b.Write(raw)
}

// Default is the process-wide logger: ring of 512, Info level, output
// discarded until a binary claims it.
var Default = New(io.Discard, LevelInfo, 512)

// Debug, Info, Warn, and Error log to Default.
func Debug(msg string, kv ...any) { Default.Log(LevelDebug, msg, kv...) }
func Info(msg string, kv ...any)  { Default.Log(LevelInfo, msg, kv...) }
func Warn(msg string, kv ...any)  { Default.Log(LevelWarn, msg, kv...) }
func Error(msg string, kv ...any) { Default.Log(LevelError, msg, kv...) }

// SetOutput and SetLevel configure Default.
func SetOutput(w io.Writer) { Default.SetOutput(w) }
func SetLevel(min Level)    { Default.SetLevel(min) }
