package tsq_test

import (
	"errors"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
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
	{pattern: `JoinPrefilter|joinRetagEvery|FeatureBounds|FeaturePoint|memberTags|inShards`,
		reason: "a cached answer is proved unaffected by its members and its own Lemma 1 rectangle: the join's store-extent prefilter, the shard tags and the engine's point and extent accessors are gone"},
	{pattern: `ShardOf`, paths: sources("."),
		reason: "the server tags no cached answer with shards: routing a name is the store's business, not the engine's"},
	{pattern: `verifyFreqApprox|ladderWalk|initApprox|ladderRungs|relaxSq|sufA2|EarlyAccepts|BoundTight|tsq_approx_bound_tightness`,
		reason: "an APPROX read verifies exactly and keeps the leaf prefix test: the residual-energy ladder, its early accepts and their tightness are gone"},
	{pattern: `\bBound\b`,
		reason: "every reported distance is exact: the per-answer upper bound (Match.Bound, Result.Bound, MatchPayload.Bound) is gone"},
	{pattern: `IntersectsMixed|CityBlockDistance|RandomWalkGaussian|Summarize|stats\.Summary|ApplyPrefix`,
		reason: "helpers no program called: the mixed-geometry overlap (rtree.flatOverlaps is the live test), the L1 distance, the Gaussian walk, the sample summary and the prefix transform are gone"},
	{pattern: `DisablePartialPrune`,
		reason: "the store always prunes: the partial-prune switch is gone, and AblationPartialPrune counts both settings on a bare k-index"},
	{pattern: `dft\.(Multiply|EnergyReal|DistanceReal)\b|func (Multiply|EnergyReal|DistanceReal)\(|WeightedMovingAverageCircular`,
		reason: "helpers no program called: the element-wise product, the real-signal energy and distance and the weighted circular average are gone"},
}

// sources lists the non-test Go files of the package in dir, relative to
// the module root.
func sources(dir string) []string {
	all, _ := filepath.Glob(filepath.Join(filepath.FromSlash(dir), "*.go"))
	return slices.DeleteFunc(all, func(path string) bool { return strings.HasSuffix(path, "_test.go") })
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

// TestStructureGates: the shape the code keeps, in checks no retired
// identifier expresses.
func TestStructureGates(t *testing.T) {
	// Two packages import only what their job allows from this module.
	// internal/query is syntax only: the root package compiles a statement
	// to the typed call, and an import of anything under repro would be the
	// second evaluator growing back. internal/testkit is the tests'
	// time-domain oracle: it may import the series, their transforms and
	// the data generators, and nothing of the filter it judges, since an
	// oracle that shares the filter's code shares its bugs.
	for _, c := range []struct {
		name, dir string
		allowed   []string
	}{
		{"query imports the standard library only", "internal/query", nil},
		{"testkit imports no filter code", "internal/testkit", []string{"repro/internal/series", "repro/internal/dft", "repro/internal/transform", "repro/internal/dataset"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, path := range packageSources(t, c.dir) {
				f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
				if err != nil {
					t.Fatal(err)
				}
				for _, spec := range f.Imports {
					imp, _ := strconv.Unquote(spec.Path.Value)
					if (imp == "repro" || strings.HasPrefix(imp, "repro/")) && !slices.Contains(c.allowed, imp) {
						t.Errorf("%s imports %s: %s may import only %v from this module", path, imp, c.dir, c.allowed)
					}
				}
			}
		})
	}
	// There is one store (core.Store, a slice of shards) and it implements
	// Engine once. A second method of any of these names in internal/core
	// would be the second store growing back.
	t.Run("core implements Engine once", func(t *testing.T) {
		methods := []string{"ExecRangeInto", "ExecNNInto", "ExecJoin", "SelfJoin", "WriteTo", "Update", "Append"}
		re := regexp.MustCompile(`^func \(.*\) (` + strings.Join(methods, "|") + `)\(`)
		declared := map[string]int{}
		for _, path := range packageSources(t, "internal/core") {
			for _, line := range sourceLines(t, path) {
				if m := re.FindStringSubmatch(line); m != nil {
					declared[m[1]]++
				}
			}
		}
		for _, m := range methods {
			if declared[m] != 1 {
				t.Errorf("internal/core declares %d methods named %s: there is one store, and it implements Engine once", declared[m], m)
			}
		}
	})
	// One write path: every tsq.Server write ends in commit, the only
	// function that notifies the monitor hub.
	t.Run("one function notifies the hub", func(t *testing.T) {
		re := regexp.MustCompile(`hub\.(Notify|RefreshAll)`)
		callers := map[string]bool{}
		for _, path := range packageSources(t, ".") {
			fn := ""
			for _, line := range sourceLines(t, path) {
				if strings.HasPrefix(line, "func ") {
					fn = line
				}
				if re.MatchString(line) {
					callers[fn] = true
				}
			}
		}
		if len(callers) != 1 {
			t.Errorf("%d root-package functions notify the monitor hub: every write ends in Server.commit, and only there", len(callers))
		}
	})
	// Deleted packages and files stay deleted.
	t.Run("retired paths are absent", func(t *testing.T) {
		for path, reason := range map[string]string{
			"internal/lru":               "the result cache is one type, resultCache in the root package",
			"internal/tlog":              "tsqd logs through log/slog",
			"internal/plan/calibrate.go": "the planner prices with its constants",
		} {
			if _, err := os.Stat(filepath.FromSlash(path)); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("%s is back (%v): %s", path, err, reason)
			}
		}
	})
}

// packageSources is sources, and fails the test when dir has none.
func packageSources(t *testing.T, dir string) []string {
	t.Helper()
	out := sources(dir)
	if len(out) == 0 {
		t.Fatalf("no Go sources in %s", dir)
	}
	return out
}

// sourceLines reads a file's lines.
func sourceLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(b), "\n")
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
