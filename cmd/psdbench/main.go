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
//	psdbench -suite hotpath,scale -out FILE
//	                            # run recorded suites (or -suite all) and
//	                            # append one entry each to FILE ("-" prints it)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

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
	suiteList := flag.String("suite", "", "run recorded suites, comma-separated or \"all\": hotpath, metrics, proxy, offload, dataplane, scenarios, scale")
	out := flag.String("out", "", "append one entry per -suite run to this BENCH-style JSON file (\"-\" prints only the new entries)")
	proxyMB := flag.Int("proxy-mb", 4, "bytes forwarded per proxy suite cell, in MB")
	scaleHosts := flag.Int("scale-hosts", 10000, "largest host count for the scale suite")
	benchLabel := flag.String("label", "psdbench", "label stored in each -out entry")
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
	// -all keeps running the offload and dataplane suites alongside the
	// paper tables.
	if *all {
		*suiteList += ",offload,dataplane"
	}
	if *suiteList != "" {
		ran = true
		sel, err := selectSuites(*suiteList)
		if err == nil {
			err = runSuites(sel, suiteArgs{proxyBytes: *proxyMB << 20, scaleHosts: *scaleHosts}, *out, *benchLabel)
		}
		if err != nil {
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

// writeTable renders paper table n (2, 3, or 4) to w; the goldens
// under testdata hold the default-effort output.
func writeTable(w io.Writer, n int, opt bench.Options) {
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
