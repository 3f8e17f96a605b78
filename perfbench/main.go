// Command psdperf is the repository's benchmark. It runs one named
// workload (bulk, rpc, vip or city) on every architecture column, checks
// the workload's outputs, and prints one JSON object as the last line of
// standard output: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a separate traced run.
//
// Each column runs in a child process of its own (the same binary with
// -child), so a finished world's parked goroutines cannot pin memory into
// the next measurement and peak RSS is that of a process that ran only
// this workload. See perfbench/README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "bulk, rpc, vip or city")
	seed := flag.Int64("seed", 1, "workload seed: arrival times, destinations and world seeds derive from it")
	seconds := flag.Float64("seconds", 10, "wall-clock seconds to keep repeating the workload (the traced run makes one pass)")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := flag.String("out", ".bench_out", "directory for spans, profiles and frame captures")
	child := flag.String("child", "", "run one column in this process and print its raw result (internal)")
	flag.Parse()

	wl, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q (have bulk, rpc, vip, city)", *workload)
	}
	if *traced != 0 && *traced != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("%v", err)
	}
	if *child != "" {
		col, err := columnByName(*child)
		if err != nil {
			fatalf("%v", err)
		}
		res := runChild(wl, col, *seed, *traced == 1, *out)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatalf("%v", err)
		}
		return
	}

	var line result
	var err error
	if *traced == 1 {
		line, err = tracedRun(wl, *seed, *out)
	} else {
		line, err = measuredRun(wl, *seed, *seconds)
	}
	if err != nil {
		fatalf("%s: %v", wl.name, err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "psdperf: "+format+"\n", a...)
	os.Exit(1)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measuredRun repeats the workload on every column, each in a fresh
// child process, until the time budget is spent, and reports the
// end-to-end metrics: host figures as the median over repeats, virtual
// figures once (they must be identical on every repeat).
func measuredRun(wl *workload, seed int64, seconds float64) (result, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var reps [][]childResult
	for len(reps) < minRepeats || (time.Now().Before(deadline) && len(reps) < maxRepeats) {
		var rep []childResult
		for _, col := range columns() {
			r, err := spawnChild(wl, col, seed, false, "")
			if err != nil {
				return result{}, err
			}
			rep = append(rep, r)
		}
		if err := sameVirtual(reps, rep); err != nil {
			return result{}, err
		}
		reps = append(reps, rep)
	}

	// Host figures: each column's median over the repeats, then summed
	// (set-up, CPU, wall) or the largest column taken (memory).
	var setup, wall, cpu, rss float64
	attempted, failed := 0, 0
	for i := range reps[0] {
		var s, w, c, m []float64
		for _, rep := range reps {
			r := rep[i]
			s, w, c, m = append(s, median(r.SetupS)), append(w, r.WallS), append(c, r.CPUS), append(m, r.PeakRSSMB)
			attempted += r.Attempted
			failed += r.Failed
		}
		setup += median(s)
		wall += median(w)
		cpu += median(c)
		rss = max(rss, median(m))
	}
	line := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	put := func(name string, v float64) { line.Metrics[name] = metric{v, unitOf(name)} }
	put("setup_s", setup)
	put("cpu_s", cpu)
	put("peak_rss_mb", rss)
	for _, r := range reps[0] {
		put("goodput_kBps."+r.Col, r.Virtual["goodput_kBps"])
		put("lat_mean_us."+r.Col, r.Virtual["lat_mean_us"])
	}
	printReport(wl, reps, line, wall)
	return line, nil
}

// sameVirtual is the determinism check: a repeat of one seed must
// reproduce every virtual metric exactly.
func sameVirtual(prev [][]childResult, rep []childResult) error {
	if len(prev) == 0 {
		return nil
	}
	for i, r := range rep {
		first := prev[0][i]
		for k, v := range first.Virtual {
			if r.Virtual[k] != v {
				return fmt.Errorf("determinism: %s.%s is %v on repeat %d, %v on the first", k, r.Col, r.Virtual[k], len(prev)+1, v)
			}
		}
		if r.Digest != first.Digest {
			return fmt.Errorf("determinism: %s output digest differs between repeats of one seed", r.Col)
		}
	}
	return nil
}

// printReport writes the human-readable table that precedes the JSON
// line: every end-to-end metric with its unit and clock, the wall time
// of the measured phase, the latency quantiles with their sample counts,
// the failure ratio, and the paper's Table 2 reference beside the cells
// it covers.
func printReport(wl *workload, reps [][]childResult, line result, wall float64) {
	fmt.Printf("workload %s (%s): %d repeats x %d columns\n", wl.name, wl.loop, len(reps), len(reps[0]))
	fmt.Printf("  %-26s %-6s %-8s %14s\n", "metric", "unit", "clock", "value")
	row := func(name, unit, clock string, v float64, note string) {
		fmt.Printf("  %-26s %-6s %-8s %14.4f%s\n", name, unit, clock, v, note)
	}
	for _, m := range endToEndMetrics() {
		v := line.Metrics[m.Name].Value
		row(m.Name, m.Unit, m.Clock, v, paperNote(wl.name, m.Name, v))
	}
	row("wall_s", "s", "host", wall, "   (not gated)")
	for _, m := range latencyQuantiles() {
		base, col, _ := strings.Cut(m.Name, ".")
		for _, r := range reps[0] {
			if r.Col == col {
				v := r.Virtual[base]
				row(m.Name, m.Unit, m.Clock, v, fmt.Sprintf("   (%d samples)%s", r.Samples, paperNote(wl.name, m.Name, v)))
			}
		}
	}
	row("fail_ratio", "ratio", "n/a", float64(line.Failed)/float64(line.Attempted), "")
}

// paperCells holds the paper's Table 2 cells per column, keyed by
// workload and metric: TCP throughput (KB/s) on bulk, and the 1-byte TCP
// round trip (µs, a mean) on rpc.
var paperCells = map[string]map[string]float64{
	"bulk/goodput_kBps": {"inkernel": 1070, "server": 740, "decomposed": 1088},
	"rpc/lat_mean_us":   {"inkernel": 1400, "server": 3640, "decomposed": 1720},
	"rpc/lat_p50_us":    {"inkernel": 1400, "server": 3640, "decomposed": 1720},
}

// paperNote returns the Table 2 reference and the relative error beside
// a metric the paper measured. The offload column has no reference.
func paperNote(workload, name string, v float64) string {
	base, col, _ := strings.Cut(name, ".")
	cells, ok := paperCells[workload+"/"+base]
	if !ok {
		return ""
	}
	p, ok := cells[col]
	if !ok {
		return "   (no paper reference: unvalidated)"
	}
	return fmt.Sprintf("   paper %.0f, error %+.1f%%", p, 100*(v-p)/p)
}

// tracedRun produces the per-layer metrics: one untraced and one traced
// child per column on the same seed, then attribution of the traced
// children's CPU profiles and micro-timings over their captured frames.
func tracedRun(wl *workload, seed int64, out string) (result, error) {
	var plain, traced []childResult
	for _, col := range columns() {
		r, err := spawnChild(wl, col, seed, false, "")
		if err != nil {
			return result{}, err
		}
		plain = append(plain, r)
	}
	for _, col := range columns() {
		r, err := spawnChild(wl, col, seed, true, out)
		if err != nil {
			return result{}, err
		}
		traced = append(traced, r)
	}
	for i := range traced {
		if err := sameVirtual([][]childResult{{plain[i]}}, []childResult{traced[i]}); err != nil {
			return result{}, fmt.Errorf("traced run: %w", err)
		}
	}
	var profiles []string
	for _, r := range traced {
		profiles = append(profiles, filepath.Join(out, r.Profile))
	}
	shares, err := selfShares(profiles)
	if err != nil {
		return result{}, err
	}
	layer := perLayer(plain, traced, shares)
	line := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range plain {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}
	fmt.Printf("workload %s (%s), traced: spans and profiles under %s\n", wl.name, wl.loop, out)
	for _, m := range perLayerMetrics() {
		line.Metrics[m.Name] = metric{layer[m.Name], m.Unit}
		fmt.Printf("  %-34s %-6s %-8s %16.4f\n", m.Name, m.Unit, m.Clock, layer[m.Name])
	}
	return line, nil
}
