package tsq_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// retired is one piece of deleted code that must stay deleted: a pattern
// no non-test Go line may match, the files it is searched in, and why the
// code went.
type retired struct {
	pattern string
	// paths are the files searched, relative to the module root; nil
	// searches every non-test Go file (see goSources).
	paths  []string
	reason string
}

// retiredCode is every deleted identifier the repository keeps out, one
// row per deletion.
var retiredCode = []retired{
	{pattern: `cacheGuard|writeLog\b|namedEvent|notifyWrite|seriesCount|BufferPoolPages|AttachPool`,
		reason: "one write path: every tsq.Server write ends in commit, behind one cache type and no memory-pool knob"},
	{pattern: `EnergyOrder|InversePermutation|relation\.Permute|sh\.perm`,
		reason: "the frequency relation stores the half spectrum in natural order: the permutation machinery is gone"},
	{pattern: `FirstK|CoefficientReal|NormalFormCoeffs|halfSpectrum|encodeSpectrum|queryFeaturePoint`,
		reason: "a series is derived by one real-input transform (feature.Schema.Derive): the direct sums and the second FFT are gone"},
	{pattern: `rangeScanFreqInto|nnScanArena|pairDist|observeDrift|PlanDrift`,
		reason: "one verify step per candidate (shard.verify): the per-strategy copies and the plan-drift checkpoints are gone"},
	{pattern: `readTSQ3|legacyMagic|appendHistory|readHistory|appendCosts|readCosts|loader\) rebuild|History\) (Export|Import)`,
		reason: "a snapshot is the store and nothing else: the TSQ3 reader, the rebuild path and the planner trailers are gone"},
	{pattern: `PlanHistory|plan\.History|plan\.Record\b|PlanRecord|StatsWithPlans|plans=1`,
		reason: "planner drift is EXPLAIN per query and tsq_plan_cost_error_ratio per kind: the executed-plan ring is gone"},
	{pattern: `internal/tlog|tlog\.|/logs|\) Logs\(`,
		reason: "a request is recorded by its trace, its histogram and, when it fails, one slog line: the access line, the log ring and GET /logs are gone"},
	{pattern: `Calibrat(e|ed)\(|SetCosts|DefaultCosts|rawProbeRatios|timePrimitives|raceEnabled|plan\.Costs`,
		reason: "the planner prices with its constants: the calibration probe, its per-store cost slot and the race-build branch are gone"},
	{pattern: `ChooseNN|ObserveNN|nnModel|exploreNN|ObserveApprox|approxModel|nnApproxModel|approxRung|defaultRung|rung0|ApproxTightness|EstSpeedup`,
		reason: "AUTO NN is the index walk and an APPROX plan carries only its delta: the NN and approximate-tier models, their probe and their estimates are gone"},
	{pattern: `timeRel\.Insert\(`, paths: []string{"internal/core/bulk.go"},
		reason: "a bulk load's time records are encoded on the derive workers: the serial per-window encode of Relation.Insert is gone from the bulk path"},
	{pattern: `plan\.Tracker|NewTracker|ObserveRange|ObserveJoin|rangeModel|joinModel|ewmaAlpha|PlannerStats|exploreTick|exploreEvery|maybeExplore|feedRange|joinSelectivity|joinVisitExp`,
		reason: "a plan depends only on the store and the query: the planner's EWMA tracker and its exploration probes are gone"},
}

// TestRetiredIdentifiersStayGone: no non-test Go file, benchmark/
// included, names a retired identifier.
func TestRetiredIdentifiersStayGone(t *testing.T) {
	all := goSources(t)
	src := map[string]string{}
	for _, r := range retiredCode {
		re := regexp.MustCompile(r.pattern)
		hints := literals(r.pattern)
		paths := r.paths
		if paths == nil {
			paths = all
		}
		for _, path := range paths {
			text, ok := src[path]
			if !ok {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				text = string(b)
				src[path] = text
			}
			if hints != nil && !slices.ContainsFunc(hints, func(h string) bool { return strings.Contains(text, h) }) {
				continue
			}
			for i, line := range strings.Split(text, "\n") {
				if re.MatchString(line) {
					t.Errorf("%s:%d: %s\n\t%s", path, i+1, strings.TrimSpace(line), r.reason)
				}
			}
		}
	}
}

// literals returns the literal prefix of each top-level alternative of
// pattern, or nil when an alternative has none. A text that contains none
// of them cannot match, and strings.Contains is much faster than the
// regexp.
func literals(pattern string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i <= len(pattern); i++ {
		if i < len(pattern) {
			switch c := pattern[i]; {
			case c == '\\':
				i++
				continue
			case c == '(':
				depth++
				continue
			case c == ')':
				depth--
				continue
			case c != '|' || depth > 0:
				continue
			}
		}
		prefix, _ := regexp.MustCompile(pattern[start:i]).LiteralPrefix()
		if prefix == "" {
			return nil
		}
		out = append(out, prefix)
		start = i + 1
	}
	return out
}

// goSources lists every non-test Go file under the module root, skipping
// dot directories and benchmark/out/, which holds a benchmark run's build
// output.
func goSources(t *testing.T) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") || path == filepath.Join("benchmark", "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no Go sources found under the module root")
	}
	return out
}
