package main

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// arbHash creates the corpus for seed in a fresh directory and hashes
// the .arb and .lab files.
func arbHash(t *testing.T, seed int64) [32]byte {
	t.Helper()
	base := filepath.Join(t.TempDir(), "c")
	if err := newCorpus(seed, smokeSpec).create(base); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, ext := range []string{".arb", ".lab"} {
		buf, err := os.ReadFile(base + ext)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(buf)
	}
	return [32]byte(h.Sum(nil))
}

func TestSeedAloneShapesInputs(t *testing.T) {
	if arbHash(t, 7) != arbHash(t, 7) {
		t.Error("same seed, different .arb bytes")
	}
	if arbHash(t, 7) == arbHash(t, 8) {
		t.Error("different seeds, identical .arb bytes")
	}

	draw := func(seed int64) []int {
		g := newRequestGen(seed, len(servePool()))
		seq := make([]int, 3*patchEvery)
		for i := range seq {
			seq[i] = g.next()
		}
		return seq
	}
	a, b, c := draw(7), draw(7), draw(8)
	same := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed, different request sequence")
	}
	if same(a, c) {
		t.Error("different seeds, identical request sequence")
	}
	if a[patchEvery-1] != -1 || a[2*patchEvery-1] != -1 || a[0] == -1 {
		t.Error("patches are not at every patchEvery-th request index")
	}

	src := func(pool []query) string {
		var b strings.Builder
		for _, q := range pool {
			b.WriteString(q.src)
		}
		return b.String()
	}
	if src(regexPool(7)) != src(regexPool(7)) || src(regexPool(7)) == src(regexPool(8)) {
		t.Error("regex pool is not a function of the seed alone")
	}
}

func TestRareTagsOwnTheirSignatureBits(t *testing.T) {
	order := tagOrder()
	if len(order) != 3+len(grammar)+posTags+rareTags {
		t.Fatalf("%d tags in the inventory", len(order))
	}
	seen := map[string]bool{}
	for _, name := range order {
		if seen[name] {
			t.Errorf("tag %s twice in the inventory", name)
		}
		seen[name] = true
	}
	for k := 0; k < rareTags; k++ {
		if !seen[rare(k)] {
			t.Errorf("%s missing from the inventory", rare(k))
		}
	}
	c := newCorpus(1, defaultSpec)
	prev := len(c.rareIn[0])
	for k, in := range c.rareIn {
		n := 0
		for _, has := range in {
			if has {
				n++
			}
		}
		if n < 1 || n > prev {
			t.Errorf("RARE%d is in %d FILEs, RARE%d in %d: want a falling share, never none", k, n, k-1, prev)
		}
		prev = n
	}
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		if got := supports(tc.n, tc.p); got != tc.want {
			t.Errorf("supports(%d, %g) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	for n, want := range map[int]float64{10: 0, 20: 0.5, 100: 0.9, 4000: 0.99, 10000: 0.999} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %g, want %g", n, got, want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1)
	}
	if q := quantile(xs, 0.9); q != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", q)
	}
	if q := quantile(xs, 0.5); q != 50 {
		t.Errorf("median of 1..100 = %g, want 50", q)
	}
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) is
	// [2.75, 5.5, 8.25]: spread (8.25 - 2.75) / 5.5 = 1.
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s < 0.999999 || s > 1.000001 {
		t.Errorf("spread = %g, want 1", s)
	}
}

func TestServePoolHasSubsumptionPairs(t *testing.T) {
	pool := servePool()
	if len(pool) != 24 {
		t.Fatalf("%d queries in the pool, want 24", len(pool))
	}
	labels := func(q query) []string {
		return regexp.MustCompile(`Label\[(\w+)\]|^xpath://(\w+)$`).FindAllString(q.src, -1)
	}
	classes := map[queryClass]int{}
	for i, q := range pool {
		classes[q.class]++
		if q.class != subset {
			continue
		}
		covered := false
		for j, s := range pool {
			if s.class != superset {
				continue
			}
			all := true
			for _, l := range labels(q) {
				l = strings.TrimPrefix(strings.TrimSuffix(strings.TrimPrefix(l, "Label["), "]"), "xpath://")
				all = all && strings.Contains(s.src, "["+l+"]")
			}
			if all {
				covered = true
				if j > i {
					t.Errorf("subset %q ranks above its superset %q", q.src, s.src)
				}
				if q.full != s.full {
					t.Errorf("subset %q and superset %q disagree on full", q.src, s.src)
				}
			}
		}
		if !covered {
			t.Errorf("subset %q has no superset in the pool", q.src)
		}
	}
	for _, c := range []queryClass{structural, rareTag, superset, subset} {
		if classes[c] == 0 {
			t.Errorf("no query of class %d in the pool", c)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 0, Name: "bench.request", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "arb.exec", Start: 10, End: 90, Parent: 0},
		{ID: 2, Name: "storage.readat", Start: 50, End: 60, Parent: 1},
	}
	p2 := tr.reported("core.phase2", 1, 30, -1)
	p1 := tr.reported("core.phase1", 1, 40, p2)
	tr.reparent(1, p1, "storage.readat")
	tr.reparent(1, p2, "storage.readat")
	if s := tr.spans[p1]; s.Start != 20 || s.End != 60 {
		t.Errorf("phase 1 placed at [%d, %d), want [20, 60)", s.Start, s.End)
	}
	if tr.spans[2].Parent != p1 {
		t.Errorf("read at 50 has parent %d, want phase 1", tr.spans[2].Parent)
	}
	self, total := tr.selfTimes()
	want := map[string]int64{"bench": 20, "arb": 10, "core": 60, "storage": 10}
	for l, w := range want {
		if int64(self[l]) != w {
			t.Errorf("self time of %s = %d, want %d", l, self[l], w)
		}
	}
	if total != 100 {
		t.Errorf("total self time %d, want 100", total)
	}
}

// TestSmokeEmitsEveryMetric runs all four workloads, untraced and
// traced, on the tiny corpus, and checks the names and units that come
// out against BENCHMARK.json.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code %d", len(m.Workloads), len(workloads))
	}
	if len(m.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the code %d", len(m.PerLayer), len(layerMetrics))
	}
	for i, l := range layerMetrics {
		if got := m.PerLayer[i]; got.Name != l.name || got.Unit != l.unit || got.Better != l.better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the code", i, got, l)
		}
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	root, outDir := t.TempDir(), t.TempDir()
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, m.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 5, seconds: 0.1, trace: traced, smoke: true, spec: smokeSpec, root: root,
				out: filepath.Join(outDir, "out.jsonl")}
			res, err := runWorkload(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d checks failed: %v", w.name, traced, res.Failed, res.Attempted, res.Problems)
			}
			want := map[string]string{}
			if traced {
				for _, l := range m.PerLayer {
					want[l.Name] = l.Unit
				}
			} else {
				for _, e := range m.EndToEnd {
					want[e.Name] = e.Unit
				}
			}
			for name, got := range res.Metrics {
				if !legal.MatchString(name) {
					t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", w.name, name)
				}
				if unit, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", w.name, traced, name)
				} else if unit != got.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, name, got.Unit, unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, name, got.Value)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s traced=%v: metric %s of BENCHMARK.json was not emitted", w.name, traced, name)
			}
			var line bytes.Buffer
			if err := printContractLine(&line, res); err != nil || !strings.HasPrefix(line.String(), `{"correct":true,"attempted":`) {
				t.Errorf("contract line %q, err %v", line.String(), err)
			}
		}
	}
	if left, _ := os.ReadDir(root); len(left) != 0 {
		t.Errorf("%d entries left behind in the scratch directory", len(left))
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range p50s {
			res := &result{Workload: "scan_full", Correct: true, Attempted: 1, Metrics: map[string]metric{
				"query_p50_ms":  {Value: v, Unit: "ms"},
				"queries_per_s": {Value: 1000 / v, Unit: "1/s"},
			}}
			if err := appendRecord(path, envStamp{}, config{seed: 1}, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	manifest := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(manifest, []byte(`{"workloads": [{"name": "scan_full"}], "end_to_end": [
		{"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.05},
		{"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.05}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("base.jsonl", 100, 101, 99, 100, 100)
	for _, tc := range []struct {
		name string
		vals []float64
		code int
		want string
	}{
		{"same.jsonl", []float64{102, 101, 100, 102, 101}, 0, "within"},
		{"slow.jsonl", []float64{110, 111, 109, 110, 110}, 1, "WORSE"},
		{"fast.jsonl", []float64{90, 91, 89, 90, 90}, 0, "better"},
		{"noisy.jsonl", []float64{80, 100, 120, 90, 110}, 0, "unresolved"},
	} {
		var out bytes.Buffer
		code := compareFiles(&out, manifest, base, write(tc.name, tc.vals...))
		if code != tc.code || strings.Count(out.String(), tc.want) != 2 {
			t.Errorf("%s: exit code %d, want %d with two %q rows:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}
