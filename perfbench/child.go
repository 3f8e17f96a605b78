package main

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/psd"
)

const (
	minRepeats = 3  // repeats per measured run, even past the time budget
	maxRepeats = 50 // cap for workloads far shorter than the budget
	profileHz  = 500
)

// column is one architecture of the comparison, reachable both as a
// two-host bench configuration and as a psd architecture.
type column struct {
	name string
	cfg  bench.SysConfig
	arch psd.Arch
}

// columns returns bench.Columns() under the psd.ArchFlavors() names, in
// bench order: inkernel, server, decomposed, offload.
func columns() []column {
	names := []string{"inkernel", "server", "decomposed", "offload"}
	cfgs := bench.Columns()
	out := make([]column, len(cfgs))
	for i, c := range cfgs {
		f, err := psd.FlavorByName(names[i])
		if err != nil {
			panic(err) // the two registries are compiled in; a mismatch is a bug
		}
		out[i] = column{name: names[i], cfg: c, arch: f.New()}
	}
	return out
}

func columnByName(name string) (column, error) {
	for _, c := range columns() {
		if c.name == name {
			return c, nil
		}
	}
	return column{}, fmt.Errorf("unknown column %q", name)
}

// workload is one named input set of the benchmark.
type workload struct {
	name        string
	loop        string // closed or open loop, with its client count or rate
	setupBuilds int    // world constructions per child; the median is reported
	run         func(r *run) error
}

var workloads = map[string]*workload{
	"bulk": {name: "bulk", loop: "closed loop, one ttcp connection per column", setupBuilds: 9, run: runBulk},
	"rpc":  {name: "rpc", loop: "closed loop, one protolat client per column", setupBuilds: 9, run: runRPC},
	"vip":  {name: "vip", loop: fmt.Sprintf("open loop, Poisson %d req/s from 2 clients", vipRate), setupBuilds: 9, run: runVIP},
	"city": {name: "city", loop: fmt.Sprintf("open loop, Poisson %d req/s across districts", cityRate), setupBuilds: 1, run: runCity},
}

// run is the state of one column's execution inside a child process.
type run struct {
	col    column
	seed   int64
	traced bool
	builds int // world constructions to time
	spans  spanLog

	setup []float64     // host seconds per world construction
	wall  time.Duration // host time of the measured phase (every Run/RunFor slice)
	cpu   time.Duration // process CPU time of the measured phase, all threads

	// Go runtime counters over the measured slices only: set-up, the
	// spare builds and the benchmark's forced collections are left out.
	allocs, allocBytes uint64
	gcs                uint32

	attempted, failed int
	lat               []time.Duration // virtual latency per completed unit of work
	payload           int64           // application payload bytes delivered
	vdur              time.Duration   // virtual length of the measured phase
	digest            hash.Hash64     // outputs the checks read, for the determinism check

	events, windows uint64

	// Traced-run inputs to the per-layer metrics.
	reg      *metrics.Registry
	frames   [][]byte // transmitted frames from the flight recorder
	vcpu     map[string]time.Duration
	vcpuDiv  float64 // segments (bulk) or one-way messages (rpc)
	connect  []time.Duration
	response []time.Duration
	late     []time.Duration
	heap     int // standing timers the world keeps, for the timer micro-timing
	layer    map[string]float64
	raw      map[string]float64
}

// build times one world construction; construction ends before the
// first event is dispatched.
func (r *run) build(fn func()) {
	runtime.GC()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.setup = append(r.setup, d.Seconds())
	r.spans.host("build", t0, d)
}

// rebuild times the remaining constructions of the same world. They run
// after the measured phase, so the spare worlds (whose parked goroutines
// keep them alive) cannot slow it. Traced runs report no set-up time.
func (r *run) rebuild(fn func()) {
	for i := 1; i < r.builds && !r.traced; i++ {
		r.build(fn)
	}
}

// slice times one Run or RunFor call of the measured phase, starting
// from a collected heap.
func (r *run) slice(name string, fn func() error) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.cpu += cpuTime() - c0
	runtime.ReadMemStats(&m1)
	r.wall += d
	r.allocs += m1.Mallocs - m0.Mallocs
	r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	r.gcs += m1.NumGC - m0.NumGC
	r.spans.host(name, t0, d)
	return err
}

// cpuTime is the user and system CPU time the process has used, over
// all its threads. Unlike wall time it leaves out the time the host's
// CPUs were taken away from the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// note folds an output value into the run's digest.
func (r *run) note(vals ...any) {
	fmt.Fprintln(r.digest, vals...)
}

// childResult is what a child process reports to the orchestrator.
type childResult struct {
	Col       string             `json:"col"`
	SetupS    []float64          `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Attempted int                `json:"attempted"`
	Samples   int                `json:"samples"` // latency samples behind the quantiles
	Failed    int                `json:"failed"`
	Virtual   map[string]float64 `json:"virtual"`
	Digest    string             `json:"digest"`

	Events   uint64  `json:"events"`
	Windows  uint64  `json:"windows"`
	Allocs   uint64  `json:"allocs"`
	AllocMB  float64 `json:"alloc_mb"`
	GCCycles uint32  `json:"gc_cycles"`

	Layer   map[string]float64 `json:"layer,omitempty"`
	Raw     map[string]float64 `json:"raw,omitempty"`
	Profile string             `json:"profile,omitempty"`
}

// spawnChild runs one column in a fresh process of this binary.
func spawnChild(wl *workload, col column, seed int64, traced bool, out string) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	args := []string{"-child", col.name, "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10), "-trace", tr}
	if out != "" {
		args = append(args, "-out", out)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("%s on %s: %w", wl.name, col.name, err)
	}
	var res childResult
	if err := json.Unmarshal(stdout, &res); err != nil {
		return childResult{}, fmt.Errorf("%s on %s: bad child output: %w", wl.name, col.name, err)
	}
	return res, nil
}

// runChild executes the workload on one column and checks its outputs;
// any failed check ends the process with an error.
func runChild(wl *workload, col column, seed int64, traced bool, out string) childResult {
	r := &run{col: col, seed: seed, traced: traced, builds: wl.setupBuilds, digest: fnv.New64a(),
		vcpu: map[string]time.Duration{}, layer: map[string]float64{}, raw: map[string]float64{}}
	r.spans.traced = traced
	if traced {
		bench.EnableMetrics()
		bench.EnableTrace(frameLimit, trace.LayerNet)
	}
	var prof string
	var profFile *os.File
	if traced {
		prof = fmt.Sprintf("%s-%s-seed%d.cpu.pprof", wl.name, col.name, seed)
		f, err := os.Create(filepath.Join(out, prof))
		if err != nil {
			fatalf("%v", err)
		}
		profFile = f
		// StartCPUProfile then warns on stderr that it cannot set its
		// default 100 Hz; the rate set here stays in force.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("%v", err)
		}
	}
	err := wl.run(r)
	if traced {
		pprof.StopCPUProfile()
		if cerr := profFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fatalf("%s on %s (seed %d): %v", wl.name, col.name, seed, err)
	}

	rss, err := peakRSSMB()
	if err != nil {
		fatalf("%v", err)
	}
	res := childResult{
		Col: col.name, SetupS: r.setup, WallS: r.wall.Seconds(), CPUS: r.cpu.Seconds(), PeakRSSMB: rss,
		Attempted: r.attempted, Failed: r.failed, Samples: len(r.lat),
		Digest: fmt.Sprintf("%016x", r.digest.Sum64()),
		Events: r.events, Windows: r.windows,
		Allocs: r.allocs, AllocMB: float64(r.allocBytes) / (1 << 20), GCCycles: r.gcs,
	}
	p50, err50 := latQuantile(r.lat, r.failed, 0.50)
	p99, err99 := latQuantile(r.lat, r.failed, 0.99)
	if err50 != nil || err99 != nil {
		fatalf("%s on %s: %v", wl.name, col.name, firstErr(err50, err99))
	}
	if r.failed > 0 {
		// A failed unit counts as +Inf, so the mean latency is unbounded.
		fatalf("%s on %s: %d of %d units failed", wl.name, col.name, r.failed, r.attempted)
	}
	if r.vdur <= 0 || r.payload <= 0 {
		fatalf("%s on %s: empty measured phase", wl.name, col.name)
	}
	res.Virtual = map[string]float64{
		"goodput_kBps": float64(r.payload) / 1024 / r.vdur.Seconds(),
		"lat_mean_us":  us(mean(r.lat)),
		"lat_p50_us":   us(p50),
		"lat_p99_us":   us(p99),
	}
	if traced {
		r.layerMetrics()
		if col.name == "decomposed" {
			r.microTimings()
		}
		if err := r.spans.write(filepath.Join(out, fmt.Sprintf("%s-%s-seed%d.spans.jsonl", wl.name, col.name, seed))); err != nil {
			fatalf("%v", err)
		}
		res.Layer, res.Raw, res.Profile = r.layer, r.raw, prof
	}
	return res
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// latQuantile is the nearest-rank q-quantile of the completed samples
// with every failed unit counted as +Inf, so a failure misses any
// latency limit; a quantile that lands on a failure is an error.
func latQuantile(lat []time.Duration, failed int, q float64) (time.Duration, error) {
	n := len(lat) + failed
	if n == 0 {
		return 0, fmt.Errorf("no latency samples")
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(lat) {
		return 0, fmt.Errorf("p%.0f is a failed request (%d of %d failed)", q*100, failed, n)
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank-1], nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(d []time.Duration) time.Duration {
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(len(d))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
