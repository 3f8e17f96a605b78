// Command psdbench regenerates the evaluation of "Protocol Service
// Decomposition for High-Performance Networking" (Maeda & Bershad,
// SOSP '93): Table 2 (throughput and latency for 12 system
// configurations on two platforms), Table 3 (the NEWAPI shared-buffer
// interface), Table 4 (the per-layer latency breakdown), the
// receive-buffer sweep methodology, and a set of ablations.
//
// Usage:
//
//	psdbench -all               # everything (takes a few minutes)
//	psdbench -table 2           # just Table 2
//	psdbench -table 4           # just the breakdown
//	psdbench -sweep             # buffer-size sweeps
//	psdbench -ablations         # design-choice ablations
//	psdbench -rounds N -mb M    # adjust effort
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/fault"
)

// Default effort: the paper tables and their goldens use these.
const (
	defaultRounds = 300
	defaultMB     = 16
)

func main() {
	table := flag.Int("table", 0, "reproduce one table (2, 3, or 4)")
	config := flag.String("config", "", "measure a single named configuration (see -list)")
	list := flag.Bool("list", false, "list configuration names")
	sweep := flag.Bool("sweep", false, "run receive-buffer sweeps")
	ablations := flag.Bool("ablations", false, "run design-choice ablations")
	all := flag.Bool("all", false, "run everything")
	rounds := flag.Int("rounds", defaultRounds, "round trips per latency cell")
	mb := flag.Int("mb", defaultMB, "ttcp transfer size in MB")
	loss := flag.Float64("loss", 0, "frame drop probability on every link")
	dup := flag.Float64("dup", 0, "frame duplication probability")
	corrupt := flag.Float64("corrupt", 0, "single-bit corruption probability")
	reorder := flag.Float64("reorder", 0, "frame reordering probability")
	reorderBy := flag.Duration("reorderby", 0, "extra delay given to reordered frames (default 2ms)")
	delay := flag.Duration("delay", 0, "fixed extra delay on every frame")
	jitter := flag.Duration("jitter", 0, "uniform random delay added per frame")
	faultPlan := flag.String("faultplan", "", "fault plan (DSL, see EXPERIMENTS.md), e.g. '@2s partition A|B for=500ms'")
	traceDir := flag.String("trace", "", "record every run on the flight recorder and dump the slowest run's trace (text, pcap, Chrome JSON) into this directory")
	jsonOut := flag.String("json", "", "run the wall-clock hot-path suite and write BENCH_hotpath-style JSON to this file (\"-\" for stdout)")
	metricsOut := flag.String("metrics", "", "run the metrics-registry digest suite and write BENCH_metrics-style JSON to this file (\"-\" for stdout)")
	proxyOut := flag.String("proxy", "", "run the proxy forwarding suite (bsd vs chain vs splice on every architecture column) and write BENCH_proxy-style JSON to this file (\"-\" for stdout)")
	proxyMB := flag.Int("proxy-mb", 4, "bytes forwarded per -proxy cell, in MB")
	offloadRun := flag.Bool("offload", false, "run the NIC-offload comparison suite (tcp-steady at several offered loads, splice proxy, churn on all four architecture columns)")
	offloadOut := flag.String("offload-json", "", "with -offload, also write a BENCH_offload-style JSON report to this file (\"-\" for stdout)")
	dataplaneRun := flag.Bool("dataplane", false, "run the programmable-data-plane suite (throughput/latency vs filter-chain length on all four architecture columns, plus the conservation-gated L4 load-balancer churn workload)")
	dataplaneOut := flag.String("dataplane-json", "", "with -dataplane, also write a BENCH_dataplane-style JSON report to this file (\"-\" for stdout)")
	scenarios := flag.Bool("scenarios", false, "run the internet-scale scenario suite (all scenarios x all architectures) and gate on its SLOs")
	scenariosOut := flag.String("scenarios-json", "", "with -scenarios, also write a BENCH_scenarios-style JSON report to this file (\"-\" for stdout)")
	scenarioSeed := flag.Int64("scenario-seed", 1, "seed for -scenarios traffic generators")
	scale := flag.Bool("scale", false, "run the sharded-simulation scale sweep (RunCity at growing host counts, classic loop vs shard groups) and gate on conservation laws plus the multi-shard speedup")
	scaleArch := flag.String("scale-arch", "decomposed", "architecture for the -scale city workload (decomposed, inkernel, server, offload)")
	scaleOut := flag.String("scale-json", "", "with -scale, also write a BENCH_scale-style JSON report to this file (\"-\" for stdout)")
	scaleHosts := flag.Int("scale-hosts", 10000, "largest host count for the -scale sweep")
	scaleSeed := flag.Int64("scale-seed", 1, "seed for the -scale city workload")
	shards := flag.Int("shards", -1, "with -scale, sweep only the classic loop plus this shard count (default: classic, 1, 4, and 8 shards)")
	benchLabel := flag.String("label", "", "label stored in the -json report (default: current date)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit (go tool pprof)")
	flag.Parse()

	if *scalePointFlag != "" {
		if err := runScalePointCmd(*scalePointFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}

	if *traceDir != "" {
		bench.EnableTrace(0)
	}

	for _, p := range []struct {
		name string
		v    float64
	}{{"loss", *loss}, {"dup", *dup}, {"corrupt", *corrupt}, {"reorder", *reorder}} {
		if p.v < 0 || p.v > 1 {
			fmt.Fprintf(os.Stderr, "-%s=%g: want probability in [0,1]\n", p.name, p.v)
			os.Exit(1)
		}
	}
	fcfg := bench.FaultConfig{
		Rates: fault.Rates{
			Drop: *loss, Dup: *dup, Corrupt: *corrupt,
			Reorder: *reorder, ReorderBy: *reorderBy,
			Delay: *delay, Jitter: *jitter,
		},
		Plan: *faultPlan,
	}
	if err := bench.SetFaults(fcfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	opt := bench.Options{LatRounds: *rounds, TotalBytes: *mb << 20}
	ran := false

	if *list {
		ran = true
		all := append(append(bench.DECConfigs(), bench.I486Configs()...), bench.NewAPIConfigs()...)
		all = append(all, bench.OffloadConfig())
		for _, c := range all {
			fmt.Printf("%-24s %s\n", c.Platform, c.Name)
		}
	}
	if *config != "" {
		ran = true
		cfg, err := bench.FindConfig(*config)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		row := bench.RunTable2Row(cfg, opt)
		fmt.Println(bench.FormatTable2("Configuration: "+cfg.Name, []bench.Table2Row{row}))
	}

	for _, n := range []int{2, 3, 4} {
		if *all || *table == n {
			ran = true
			writeTable(os.Stdout, n, opt)
		}
	}
	if *all || *sweep {
		ran = true
		for _, cfg := range bench.DECConfigs() {
			pts := bench.SweepBuffers(cfg, opt.TotalBytes/4, nil)
			fmt.Println(bench.FormatSweep(cfg, pts))
		}
	}
	if *all || *ablations {
		ran = true
		fmt.Println(bench.FormatAblations(bench.RunAblations(opt)))
	}
	if *jsonOut != "" {
		ran = true
		if err := runHotpath(*jsonOut, *benchLabel, opt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *metricsOut != "" {
		ran = true
		if err := runMetrics(*metricsOut, *benchLabel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *proxyOut != "" {
		ran = true
		if err := runProxy(*proxyOut, *benchLabel, *proxyMB<<20); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *all || *offloadRun {
		ran = true
		if err := runOffload(*offloadOut, *benchLabel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *all || *dataplaneRun {
		ran = true
		if err := runDataplane(*dataplaneOut, *benchLabel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *scenarios {
		ran = true
		if err := runScenarios(*scenariosOut, *benchLabel, *scenarioSeed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *scale {
		ran = true
		shardCounts := []int{0, 1, 4, 8}
		if *shards >= 0 {
			shardCounts = []int{0}
			if *shards > 0 {
				shardCounts = append(shardCounts, *shards)
			}
		}
		if err := runScale(*scaleOut, *benchLabel, *scaleArch, *scaleSeed, *scaleHosts, shardCounts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if bench.FaultsActive() {
		if rep := bench.FaultReport(); rep != "" {
			fmt.Println(rep)
		}
	}
	if *traceDir != "" {
		msg, err := bench.DumpSlowest(*traceDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(msg)
	}
}

// headlineConfig is the configuration the registry digest runs against:
// the paper's headline Library-SHM-IPF system.
func headlineConfig() bench.SysConfig { return bench.HeadlineConfig() }

// runHotpath measures the wall-clock hot path and writes the JSON
// report, including the registry digest of the headline configuration.
func runHotpath(path, label string, opt Options) error {
	results, err := bench.RunHotpath(0, 0)
	if err != nil {
		return err
	}
	metrics, err := bench.RunMetricsSuite(headlineConfig())
	if err != nil {
		return err
	}
	if label == "" {
		label = "psdbench"
	}
	rep := bench.HotpathReport{
		Label:   label,
		Date:    time.Now().UTC().Format("2006-01-02"),
		Results: results,
		Metrics: metrics,
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := bench.WriteHotpathJSON(out, rep); err != nil {
		return err
	}
	if path != "-" {
		fmt.Printf("wrote hot-path report to %s\n", path)
	}
	return nil
}

// runMetrics runs only the registry digest suite and writes the
// BENCH_metrics-style JSON entry.
func runMetrics(path, label string) error {
	cfg := headlineConfig()
	results, err := bench.RunMetricsSuite(cfg)
	if err != nil {
		return err
	}
	if label == "" {
		label = "psdbench"
	}
	rep := bench.MetricsReport{
		Label:   label,
		Date:    time.Now().UTC().Format("2006-01-02"),
		Config:  cfg.Name,
		Results: results,
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := bench.WriteMetricsJSON(out, rep); err != nil {
		return err
	}
	if path != "-" {
		fmt.Printf("wrote metrics report to %s\n", path)
	}
	return nil
}

// runProxy measures the socket-to-socket forwarding workload — the
// flat-buffer loop against the chain and splice paths — on the three
// reference architectures, and writes the BENCH_proxy-style report.
func runProxy(path, label string, totalBytes int) error {
	results, err := bench.RunProxySuite(totalBytes)
	if err != nil {
		return err
	}
	if label == "" {
		label = "psdbench"
	}
	rep := bench.ProxyReport{
		Label:   label,
		Date:    time.Now().UTC().Format("2006-01-02"),
		Results: results,
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := bench.WriteProxyJSON(out, rep); err != nil {
		return err
	}
	if path != "-" {
		fmt.Printf("wrote proxy report to %s\n", path)
	}
	return nil
}

// writeTable renders paper table n (2, 3, or 4) to w; the goldens
// under testdata hold the default-effort output.
func writeTable(w io.Writer, n int, opt Options) {
	switch n {
	case 2:
		fmt.Fprintln(w, bench.FormatTable2(
			"Table 2: TCP throughput and TCP/UDP round-trip latency", bench.RunTable2(opt)))
	case 3:
		fmt.Fprintln(w, bench.FormatTable2(
			"Table 3: the modified socket interface (NEWAPI)", bench.RunTable3(opt)))
	case 4:
		decs := bench.DECConfigs()
		styles := []bench.SysConfig{decs[5], decs[0], decs[2]} // Library, Kernel, Server
		var tcpCells, udpCells []bench.Breakdown
		for _, cfg := range styles {
			for _, size := range []int{1, 1460} {
				tcpCells = append(tcpCells, bench.RunBreakdown(cfg, true, size, opt.LatRounds))
			}
		}
		for _, cfg := range styles {
			for _, size := range []int{1, 1472} {
				udpCells = append(udpCells, bench.RunBreakdown(cfg, false, size, opt.LatRounds))
			}
		}
		fmt.Fprintln(w, bench.FormatTable4("Table 4 (TCP): per-layer latency, µs per one-way message", tcpCells))
		fmt.Fprintln(w, bench.FormatTable4("Table 4 (UDP): per-layer latency, µs per one-way message", udpCells))
	}
}

// Options aliases bench.Options for the local helper signature.
type Options = bench.Options
