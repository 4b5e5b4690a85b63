package tsq

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/query"
	"repro/internal/transform"
)

// Transform is a deferred specification of one of the paper's safe linear
// transformations (or a composition of them). Transforms are built with
// the package-level constructors and materialized against a concrete
// series length at query time, so one Transform value works across DBs of
// different lengths.
//
// The zero value is the identity transformation.
type Transform struct {
	steps []tstep
	warp  int
	cost  float64
}

type tstep struct {
	kind string
	arg  float64
	ws   []float64
}

// Identity returns the identity transformation T_i = (1, 0).
func Identity() Transform { return Transform{} }

// MovingAverage returns the paper's T_mavg: the l-day circular moving
// average (Section 3.2, Equation 11). Safe in the polar space.
func MovingAverage(l int) Transform {
	return Transform{steps: []tstep{{kind: "mavg", arg: float64(l)}}}
}

// WeightedMovingAverage returns a circular moving average with arbitrary
// window weights (trend-prediction averages weight recent days more).
func WeightedMovingAverage(weights ...float64) Transform {
	ws := make([]float64, len(weights))
	copy(ws, weights)
	return Transform{steps: []tstep{{kind: "wmavg", ws: ws}}}
}

// Reverse returns T_rev (Example 2.2): every value negated, for finding
// series with opposite movements. Safe in both spaces.
func Reverse() Transform {
	return Transform{steps: []tstep{{kind: "reverse"}}}
}

// Scale multiplies every value by c (negative c allowed). Safe in both
// spaces.
func Scale(c float64) Transform {
	return Transform{steps: []tstep{{kind: "scale", arg: c}}}
}

// Shift adds c to every value. It moves only the mean, which the index
// stores as a separate dimension, so it composes freely with the others.
func Shift(c float64) Transform {
	return Transform{steps: []tstep{{kind: "shift", arg: c}}}
}

// Warp returns the time-warping transformation of Appendix A with integer
// stretch factor m >= 2: a query series of length m*n is matched against
// stored series of length n, each value conceptually repeated m times.
// Warp cannot be composed with other transformations.
func Warp(m int) Transform {
	return Transform{warp: m}
}

// Then composes transformations left to right: t.Then(u) applies t first.
// Composing with Warp in either position is rejected at query time.
func (t Transform) Then(u Transform) Transform {
	out := Transform{
		steps: append(append([]tstep{}, t.steps...), u.steps...),
		cost:  t.cost + u.cost,
	}
	if t.warp != 0 || u.warp != 0 {
		out.warp = -1 // poisoned; materialize reports the error
	}
	return out
}

// WithCost attaches a cost for use with the cost-bounded dissimilarity
// measure (Equation 10 / CostDistance).
func (t Transform) WithCost(c float64) Transform {
	out := t
	out.cost = c
	return out
}

// String renders the transformation pipeline.
func (t Transform) String() string {
	if t.warp > 0 {
		return fmt.Sprintf("warp(%d)", t.warp)
	}
	if len(t.steps) == 0 {
		return "identity"
	}
	parts := make([]string, len(t.steps))
	for i, s := range t.steps {
		switch s.kind {
		case "mavg":
			parts[i] = fmt.Sprintf("mavg(%d)", int(s.arg))
		case "wmavg":
			parts[i] = fmt.Sprintf("wmavg(%d)", len(s.ws))
		case "reverse":
			parts[i] = "reverse"
		case "scale":
			parts[i] = fmt.Sprintf("scale(%g)", s.arg)
		case "shift":
			parts[i] = fmt.Sprintf("shift(%g)", s.arg)
		default:
			parts[i] = s.kind
		}
	}
	return strings.Join(parts, "|")
}

// Canonical renders the transformation as an unambiguous query-language
// pipeline: equal transformations always produce equal strings, and
// (cost aside) ParseTransform inverts it. Unlike String, it spells out
// every wmavg weight. Used as the cache key component for server-side
// result caching.
func (t Transform) Canonical() string {
	var b strings.Builder
	switch {
	case t.warp != 0:
		fmt.Fprintf(&b, "warp(%d)", t.warp)
	case len(t.steps) == 0:
		b.WriteString("identity()")
	default:
		for i, s := range t.steps {
			if i > 0 {
				b.WriteByte('|')
			}
			switch s.kind {
			case "mavg":
				fmt.Fprintf(&b, "mavg(%d)", int(s.arg))
			case "wmavg":
				b.WriteString("wmavg(")
				for j, w := range s.ws {
					if j > 0 {
						b.WriteByte(',')
					}
					b.WriteString(strconv.FormatFloat(w, 'g', -1, 64))
				}
				b.WriteByte(')')
			case "reverse":
				b.WriteString("reverse()")
			default:
				fmt.Fprintf(&b, "%s(%s)", s.kind, strconv.FormatFloat(s.arg, 'g', -1, 64))
			}
		}
	}
	if t.cost != 0 {
		fmt.Fprintf(&b, "@cost=%s", strconv.FormatFloat(t.cost, 'g', -1, 64))
	}
	return b.String()
}

// ParseTransform parses the query language's transformation syntax — e.g.
// "mavg(20)", "reverse()|mavg(20)", "warp(2)" — into a Transform. The
// empty string is the identity. This is the wire format the HTTP server
// accepts in its typed query endpoints.
func ParseTransform(spec string) (Transform, error) {
	calls, err := query.ParseTransformSpec(spec)
	if err != nil {
		return Transform{}, err
	}
	return transformOf(calls)
}

// transformOf builds the Transform a parsed pipeline names — a
// ParseTransform spec or a statement's TRANSFORM, LEFT or RIGHT clause. It
// is the one place a transformation name and its argument list are checked;
// what depends on the series length (a window longer than the series) is
// materialize's to reject.
func transformOf(calls []query.TransformCall) (Transform, error) {
	var t Transform
	for _, c := range calls {
		var step Transform
		switch c.Name {
		case "identity":
			if err := wantTransformArgs(c, 0); err != nil {
				return Transform{}, err
			}
			continue
		case "mavg":
			if err := wantTransformArgs(c, 1); err != nil {
				return Transform{}, err
			}
			l, err := positiveIntArg(c, 0)
			if err != nil {
				return Transform{}, err
			}
			step = MovingAverage(l)
		case "wmavg":
			if len(c.Args) < 1 {
				return Transform{}, fmt.Errorf("tsq: wmavg takes at least one weight")
			}
			step = WeightedMovingAverage(c.Args...)
		case "reverse":
			if err := wantTransformArgs(c, 0); err != nil {
				return Transform{}, err
			}
			step = Reverse()
		case "scale":
			if err := wantTransformArgs(c, 1); err != nil {
				return Transform{}, err
			}
			step = Scale(c.Args[0])
		case "shift":
			if err := wantTransformArgs(c, 1); err != nil {
				return Transform{}, err
			}
			step = Shift(c.Args[0])
		case "warp":
			if err := wantTransformArgs(c, 1); err != nil {
				return Transform{}, err
			}
			v := c.Args[0]
			if v != math.Trunc(v) || v < 2 || v > 64 {
				return Transform{}, fmt.Errorf("tsq: warp argument must be an integer in [2, 64], got %g", v)
			}
			if len(calls) != 1 {
				return Transform{}, fmt.Errorf("tsq: warp cannot be composed with other transformations")
			}
			return Warp(int(v)), nil
		default:
			return Transform{}, fmt.Errorf("tsq: unknown transformation %q", c.Name)
		}
		t = t.Then(step)
	}
	return t, nil
}

func wantTransformArgs(c query.TransformCall, n int) error {
	if len(c.Args) != n {
		return fmt.Errorf("tsq: %s takes %d argument(s), got %d", c.Name, n, len(c.Args))
	}
	return nil
}

func positiveIntArg(c query.TransformCall, i int) (int, error) {
	v := c.Args[i]
	if v != math.Trunc(v) || v < 1 || v > math.MaxInt32 {
		return 0, fmt.Errorf("tsq: %s argument must be a positive integer, got %g", c.Name, v)
	}
	return int(v), nil
}

// materialize builds the concrete transformation for series length n,
// returning the warp factor (0 when not warping).
func (t Transform) materialize(n int) (transform.T, int, error) {
	if t.warp < 0 {
		return transform.T{}, 0, fmt.Errorf("tsq: warp cannot be composed with other transformations")
	}
	if t.warp > 0 {
		if t.warp < 2 {
			return transform.T{}, 0, fmt.Errorf("tsq: warp factor must be >= 2, got %d", t.warp)
		}
		return transform.Warp(n, t.warp).WithCost(t.cost), t.warp, nil
	}
	out := transform.CachedIdentity(n)
	for i, s := range t.steps {
		var step transform.T
		switch s.kind {
		case "mavg":
			l := int(s.arg)
			if l < 1 || l > n {
				return transform.T{}, 0, fmt.Errorf("tsq: moving-average window %d out of range [1, %d]", l, n)
			}
			step = transform.MovingAverage(n, l)
		case "wmavg":
			if len(s.ws) < 1 || len(s.ws) > n {
				return transform.T{}, 0, fmt.Errorf("tsq: weighted window of %d weights out of range [1, %d]", len(s.ws), n)
			}
			step = transform.WeightedMovingAverage(n, s.ws)
		case "reverse":
			step = transform.Reverse(n)
		case "scale":
			step = transform.Scale(n, s.arg)
		case "shift":
			step = transform.Shift(n, s.arg)
		default:
			return transform.T{}, 0, fmt.Errorf("tsq: unknown transformation step %q", s.kind)
		}
		if i == 0 {
			out = step
		} else {
			var err error
			out, err = out.Compose(step)
			if err != nil {
				return transform.T{}, 0, err
			}
		}
	}
	return out.WithCost(t.cost), 0, nil
}

// Apply runs the transformation on a raw series in the time domain (via
// the frequency domain, as the paper defines it): MovingAverage yields the
// circular moving average, Reverse the negated series, and so on. Warp
// transforms are applied directly (each value repeated m times).
func (t Transform) Apply(values []float64) ([]float64, error) {
	if t.warp > 0 {
		out := make([]float64, 0, len(values)*t.warp)
		for _, v := range values {
			for j := 0; j < t.warp; j++ {
				out = append(out, v)
			}
		}
		return out, nil
	}
	tr, _, err := t.materialize(len(values))
	if err != nil {
		return nil, err
	}
	return tr.ApplyTime(values), nil
}
