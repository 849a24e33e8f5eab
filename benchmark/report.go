package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// envStamp says where and on what a record was measured.
type envStamp struct {
	Commit     string     `json:"commit"`
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	NProc      int        `json:"nproc"`
	CPU        string     `json:"cpu_model"`
	Corpus     corpusSpec `json:"corpus"`
}

func environment(cfg config) envStamp {
	env := envStamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Corpus:     cfg.spec,
	}
	// The go command stamps main packages built inside a git work tree;
	// the driver's checkout is not one, and says "unknown".
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// cpuModel reads the processor name the kernel reports; it is part of
// the stamp only, never of a measurement.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func (e envStamp) describe() string {
	return fmt.Sprintf("# commit %s, %s, GOMAXPROCS %d of %d cpus, %s\n"+
		"# corpus: %d FILEs x %d nodes; caches it is compared with: block cache %d x %d KB = %d KB, result cache %d MB, plan cache %d plans",
		e.Commit, e.GoVersion, e.GOMAXPROCS, e.NProc, e.CPU,
		e.Corpus.Files, e.Corpus.FileNodes,
		blockCache, blockSize>>10, blockCache*blockSize>>10, resCacheBytes>>20, planCacheSize)
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult prints every metric of a pass by name, with its unit.
func printResult(w io.Writer, r *result) {
	pass := "untraced"
	if r.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s pass): %d nodes, %d bytes on disk (%.1fx the block cache); %d checks, %d failed\n",
		r.Workload, pass, r.Nodes, r.DBBytes, float64(r.DBBytes)/float64(blockCache*blockSize), r.Attempted, r.Failed)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-40s %14.6g %-8s", name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
			if p := highestSupported(m.Samples); m.Unit == "ms" && p > 0 {
				fmt.Fprintf(w, " (carries up to p%g)", p*100)
			}
		}
		fmt.Fprintln(w)
	}
	for _, name := range sortedKeys(r.Observed) {
		fmt.Fprintf(w, "  saw %-34s %14.6g %s\n", name, r.Observed[name], layerUnit(name))
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
}

// printContractLine prints the pass's result as the single JSON object
// the driver reads from the last line of standard output.
func printContractLine(w io.Writer, r *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}

// record is one line of an -out file.
type record struct {
	Env       envStamp          `json:"env"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Smoke     bool              `json:"smoke,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Nodes     int64             `json:"nodes"`
	DBBytes   int64             `json:"db_bytes"`
	Metrics   map[string]metric `json:"metrics"`
}

func appendRecord(path string, env envStamp, cfg config, r *result) error {
	buf, err := json.Marshal(record{env, r.Workload, cfg.seed, cfg.seconds, r.Trace, cfg.smoke,
		r.Correct, r.Attempted, r.Failed, r.Nodes, r.DBBytes, r.Metrics})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(buf, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	dec := json.NewDecoder(f)
	for dec.More() {
		var r record
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// manifest is the part of BENCHMARK.json the comparison needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// compareFiles prints, per workload row, each end-to-end metric's change
// from the before file's median to the after file's against its bound,
// and returns the exit code: 1 when any metric got worse by more than
// its bound or an operation failed. A metric whose run-to-run spread on
// either side is wider than its bound is unresolved, not unchanged.
func compareFiles(w io.Writer, manifestPath, beforePath, afterPath string) int {
	m, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	before, err := readRecords(beforePath)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	after, err := readRecords(afterPath)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	values := func(recs []record, workload, name string) (xs []float64, failed int) {
		for _, r := range recs {
			if r.Workload == workload && !r.Trace {
				failed += r.Failed
				if v, ok := r.Metrics[name]; ok {
					xs = append(xs, v.Value)
				}
			}
		}
		return xs, failed
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-16s %12s %12s %9s %7s %7s %7s  %s\n",
		"workload", "metric", "before", "after", "change", "bound", "spr.b", "spr.a", "verdict")
	for _, wl := range m.Workloads {
		for _, e := range m.EndToEnd {
			xb, fb := values(before, wl.Name, e.Name)
			xa, fa := values(after, wl.Name, e.Name)
			if len(xb) == 0 || len(xa) == 0 {
				fmt.Fprintf(w, "%-14s %-16s missing on one side\n", wl.Name, e.Name)
				code = 1
				continue
			}
			mb, ma := runMedian(xb), runMedian(xa)
			change := (ma - mb) / mb
			worse := change
			if e.Better == "higher" {
				worse = -change
			}
			sb, sa := spread(xb), spread(xa)
			verdict := "within"
			switch {
			case fa > fb:
				verdict = fmt.Sprintf("WORSE (%d failed operations, %d before)", fa, fb)
				code = 1
			case sb > e.Bound || sa > e.Bound:
				verdict = "unresolved (spread wider than bound)"
			case worse > e.Bound:
				verdict = "WORSE"
				code = 1
			case worse < -e.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-14s %-16s %12.5g %12.5g %+8.1f%% %6.1f%% %6.1f%% %6.1f%%  %s (n=%d,%d)\n",
				wl.Name, e.Name, mb, ma, 100*change, 100*e.Bound, 100*sb, 100*sa, verdict, len(xb), len(xa))
		}
	}
	return code
}

// runMedian is the median of a handful of run values: the mean of the
// middle two for an even count, as the driver takes it (latency samples
// use the nearest-rank quantile instead).
func runMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
