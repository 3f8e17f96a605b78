package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/bench"
)

// suiteArgs carries the effort knobs CI and the default run set
// differently.
type suiteArgs struct {
	proxyBytes int
	scaleHosts int
}

// suite is one recorded benchmark: run measures it and returns its
// records; a non-nil error is a failed gate and fails the whole run.
type suite struct {
	name string
	run  func(suiteArgs) ([]bench.Record, error)
}

// suites lists every recorded suite in run order; -suite selects by
// name and -out appends one bench.Entry per suite.
var suites = []suite{
	{"hotpath", func(suiteArgs) ([]bench.Record, error) {
		return records(bench.RunHotpath())
	}},
	{"metrics", func(suiteArgs) ([]bench.Record, error) {
		cfg := bench.HeadlineConfig()
		recs, err := records(bench.RunMetricsSuite(cfg))
		for i := range recs {
			recs[i].Config = cfg.Name
		}
		return recs, err
	}},
	{"proxy", func(a suiteArgs) ([]bench.Record, error) {
		recs, err := records(bench.RunProxySuite(a.proxyBytes))
		for i := range recs {
			recs[i].Params = map[string]float64{"bytes": float64(a.proxyBytes)}
		}
		return recs, err
	}},
	{"offload", func(suiteArgs) ([]bench.Record, error) {
		return records(bench.RunOffloadSuite())
	}},
	{"dataplane", func(suiteArgs) ([]bench.Record, error) {
		return records(bench.RunDataplaneSuite())
	}},
	{"scenarios", func(suiteArgs) ([]bench.Record, error) { return runScenarios() }},
	{"scale", func(a suiteArgs) ([]bench.Record, error) { return runScale(a.scaleHosts) }},
}

// records converts a suite's result rows, passing its error through.
func records[T any](rows []T, err error) ([]bench.Record, error) {
	if err != nil {
		return nil, err
	}
	return bench.Records(rows)
}

// selectSuites resolves a comma-separated -suite list ("all" for every
// suite) against the table, keeping table order.
func selectSuites(list string) ([]suite, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	var out []suite
	for _, s := range suites {
		if want["all"] || want[s.name] {
			out = append(out, s)
			delete(want, s.name)
		}
	}
	delete(want, "all")
	for name := range want {
		names := make([]string, len(suites))
		for i, s := range suites {
			names[i] = s.name
		}
		return nil, fmt.Errorf("-suite: unknown suite %q (have %s, all)", name, strings.Join(names, ", "))
	}
	return out, nil
}

// runSuites measures each suite in turn, prints its records as a table
// (unless out is "-", which prints only the new entries), and appends
// one entry per suite to out when out is set. A failing suite records
// nothing.
func runSuites(sel []suite, args suiteArgs, out, label string) error {
	for _, s := range sel {
		recs, err := s.run(args)
		if out != "-" && len(recs) > 0 {
			printRecords(os.Stdout, s.name, recs)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if out == "" {
			continue
		}
		if err := bench.AppendEntry(out, bench.NewEntry(s.name, label, recs)); err != nil {
			return err
		}
		if out != "-" {
			fmt.Printf("appended %s entry to %s\n", s.name, out)
		}
	}
	return nil
}

// printRecords renders records as aligned tables: one row per record
// (workload, config, params, metrics), with a new table wherever a
// workload's columns differ from the previous workload's.
func printRecords(w io.Writer, title string, recs []bench.Record) {
	var order []string
	byWorkload := map[string][]bench.Record{}
	for _, r := range recs {
		if _, ok := byWorkload[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	fmt.Fprintf(w, "Suite %s\n", title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	var cols []string
	for _, wl := range order {
		group := byWorkload[wl]
		params, metrics := keys(group, func(r bench.Record) map[string]float64 { return r.Params }),
			keys(group, func(r bench.Record) map[string]float64 { return r.Metrics })
		if next := append(slices.Clone(params), metrics...); !slices.Equal(next, cols) {
			cols = next
			tw.Flush()
			fmt.Fprintf(tw, "\nworkload\tconfig\t%s\n", strings.Join(cols, "\t"))
		}
		for _, r := range group {
			fmt.Fprintf(tw, "%s\t%s", r.Workload, r.Config)
			for i, k := range cols {
				m := r.Metrics
				if i < len(params) {
					m = r.Params
				}
				cell := "-"
				if v, ok := m[k]; ok {
					cell = formatValue(v)
				}
				fmt.Fprintf(tw, "\t%s", cell)
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// keys returns the sorted union of one map's keys across records.
func keys(recs []bench.Record, m func(bench.Record) map[string]float64) []string {
	var out []string
	for _, r := range recs {
		for k := range m(r) {
			if !slices.Contains(out, k) {
				out = append(out, k)
			}
		}
	}
	slices.Sort(out)
	return out
}

// formatValue prints integers exactly, large values to the unit and
// small ones to four significant digits.
func formatValue(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	case math.Abs(v) >= 1000:
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
