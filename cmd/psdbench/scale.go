package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/slo"
	"repro/psd"
)

// The scale suite measures the simulator's own scheduler at internet
// scale: the RunCity districted workload at growing host counts, run on
// the classic single event loop (shards=0, the baseline) and on shard
// groups of increasing width. Every point must pass the conservation
// laws; the headline number is sim_per_real — virtual seconds simulated
// per wall-clock second — whose trajectory across host counts is what
// BENCH_scale.json records.

// ScalePoint is one measured (workload size, scheduler shape) cell.
type ScalePoint struct {
	Arch         string  `json:"arch,omitempty"`
	Hosts        int     `json:"hosts"`
	Districts    int     `json:"districts"`
	Conns        int     `json:"conns"`
	Shards       int     `json:"shards"` // 0 = classic single loop
	VirtSeconds  float64 `json:"virt_seconds"`
	RealSeconds  float64 `json:"real_seconds"`
	SimPerReal   float64 `json:"sim_per_real"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Windows      uint64  `json:"windows,omitempty"`
	// AllocsPerWindow is heap allocations per synchronization window
	// (sharded cells only) — the window-loop efficiency gauge. Cells run
	// in fresh child processes, so the malloc counter sees one run.
	AllocsPerWindow float64 `json:"allocs_per_window,omitempty"`
}

// The scale sweep's fixed inputs; every recorded BENCH_scale.json entry
// used them.
const (
	scaleSeed = 1
	scaleArch = "decomposed"
)

// scaleShards are the scheduler shapes swept at each host count: the
// classic single loop (0) and shard groups of 1, 4 and 8.
var scaleShards = []int{0, 1, 4, 8}

// scaleCity sizes a city to roughly the requested host count: 100
// hosts per district (10 echo servers, 90 clients), one connection per
// client, a quarter of them crossing districts over the trunks.
func scaleCity(hosts, shards int, arch psd.Arch) psd.CityConfig {
	districts := hosts / 100
	if districts < 1 {
		districts = 1
	}
	return psd.CityConfig{
		Seed:               scaleSeed,
		Districts:          districts,
		ServersPerDistrict: 10,
		ClientsPerDistrict: 90,
		ConnsPerClient:     1,
		CrossEvery:         4,
		OrphanEvery:        16,
		MsgBytes:           256,
		Arch:               arch,
		Shards:             shards,
		TrunkProp:          time.Millisecond,
	}
}

// pointSpec is the child-process work order for one cell.
type pointSpec struct {
	Hosts  int `json:"hosts"`
	Shards int `json:"shards"`
}

// scalePointFlag is the internal child mode: measure one cell and print
// the ScalePoint as JSON. Each cell runs in its own process because a
// finished simulation's parked daemon goroutines are pinned until
// process exit — a shared process would tax every later cell's GC with
// the previous cells' heaps and make the comparison order-dependent.
var scalePointFlag = flag.String("scale-point", "",
	"internal: measure one scale cell (JSON spec) and print the point as JSON")

// runScalePointCmd is the -scale-point child entry.
func runScalePointCmd(spec string) error {
	var ps pointSpec
	if err := json.Unmarshal([]byte(spec), &ps); err != nil {
		return fmt.Errorf("scale-point: %w", err)
	}
	p, err := runScalePoint(ps.Hosts, ps.Shards)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(p)
}

// spawnScalePoint measures one cell in a fresh child process.
func spawnScalePoint(hosts, shards int) (ScalePoint, error) {
	exe, err := os.Executable()
	if err != nil {
		return ScalePoint{}, err
	}
	spec, _ := json.Marshal(pointSpec{Hosts: hosts, Shards: shards})
	cmd := exec.Command(exe, "-scale-point", string(spec))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return ScalePoint{}, fmt.Errorf("hosts=%d shards=%d: %w", hosts, shards, err)
	}
	var p ScalePoint
	if err := json.Unmarshal(out, &p); err != nil {
		return ScalePoint{}, fmt.Errorf("hosts=%d shards=%d: bad child output: %w", hosts, shards, err)
	}
	return p, nil
}

// runScalePoint executes one cell and folds the run into a point.
func runScalePoint(hosts, shards int) (ScalePoint, error) {
	f, err := psd.FlavorByName(scaleArch)
	if err != nil {
		return ScalePoint{}, fmt.Errorf("scale: %w", err)
	}
	cfg := scaleCity(hosts, shards, f.New())
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	rep, err := psd.RunCity(cfg)
	real := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	if err != nil {
		return ScalePoint{}, fmt.Errorf("scale: hosts=%d shards=%d: %w", hosts, shards, err)
	}
	if !rep.Passed {
		return ScalePoint{}, fmt.Errorf("scale: hosts=%d shards=%d: conservation laws failed:\n%s",
			hosts, shards, slo.Report(slo.Failures(rep.SLO)))
	}
	// Virtual time is identical across scheduler shapes for a given
	// workload (that is the determinism guarantee); real time is the
	// variable under test.
	virt := float64(rep.Snapshot.At) / float64(time.Second)
	p := ScalePoint{
		Arch:         scaleArch,
		Hosts:        rep.Hosts,
		Districts:    rep.Districts,
		Conns:        rep.ConnsPlan,
		Shards:       shards,
		VirtSeconds:  virt,
		RealSeconds:  real.Seconds(),
		SimPerReal:   virt / real.Seconds(),
		Events:       rep.DispatchedTotal,
		EventsPerSec: float64(rep.DispatchedTotal) / real.Seconds(),
		Windows:      rep.Windows,
	}
	if rep.Windows > 0 {
		p.AllocsPerWindow = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(rep.Windows)
	}
	return p, nil
}

// runScale sweeps host counts up to maxHosts x scheduler shapes and
// records one "city" record per point. The sweep fails if any
// conservation law fails, or if no multi-shard run at the largest host
// count beats the classic single-loop baseline on sim_per_real.
func runScale(maxHosts int) ([]bench.Record, error) {
	hostSteps := []int{2500, 10000, 40000, 100000}
	var hosts []int
	for _, h := range hostSteps {
		if h <= maxHosts {
			hosts = append(hosts, h)
		}
	}
	if len(hosts) == 0 {
		hosts = []int{maxHosts}
	}

	var points []ScalePoint
	var baseline, bestMulti float64
	for _, h := range hosts {
		for _, k := range scaleShards {
			p, err := spawnScalePoint(h, k)
			if err != nil {
				return nil, err
			}
			if h == hosts[len(hosts)-1] {
				// The largest host count is the gating row: measure it
				// twice and keep the faster run, so single-run timing
				// noise cannot flip the speedup verdict. The simulation
				// itself is deterministic — only wall time varies.
				p2, err := spawnScalePoint(h, k)
				if err != nil {
					return nil, err
				}
				if p2.SimPerReal > p.SimPerReal {
					p = p2
				}
				if k == 0 {
					baseline = p.SimPerReal
				} else if p.SimPerReal > bestMulti {
					bestMulti = p.SimPerReal
				}
			}
			points = append(points, p)
		}
	}
	recs, err := bench.Records(points)
	if err != nil {
		return nil, err
	}
	for i := range recs {
		recs[i].Workload = "city"
		recs[i].Params["seed"] = scaleSeed
	}
	if bestMulti <= baseline {
		return recs, fmt.Errorf("no multi-shard run beat the single-loop baseline (%.1f vs %.1f sim/real)",
			bestMulti, baseline)
	}
	return recs, nil
}
