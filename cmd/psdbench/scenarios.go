package main

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/slo"
	"repro/psd"
)

// scenarioSeed seeds the scenario traffic generators; every recorded
// BENCH_scenarios.json entry used it.
const scenarioSeed = 1

// runScenarios executes every named scenario on every architecture and
// records each cell with its verdict: passed (0/1) and the number of
// failed SLO rules. A failed SLO fails the suite, and the error lists
// the failing rules.
func runScenarios() ([]bench.Record, error) {
	var results []*psd.ScenarioResult
	for _, name := range psd.ScenarioNames() {
		for _, a := range psd.ArchFlavors() {
			res, err := psd.RunScenario(psd.ScenarioConfig{
				Name: name, Seed: scenarioSeed, Arch: a.New(), ArchName: a.Name,
			})
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
	}
	recs, err := bench.Records(results)
	if err != nil {
		return nil, err
	}
	var failures []string
	for i, res := range results {
		failed := slo.Failures(res.SLO)
		recs[i].Metrics["slo_failed"] = float64(len(failed))
		if !res.Passed {
			failures = append(failures, fmt.Sprintf("%s/%s:\n%s", res.Name, res.Arch, slo.Report(failed)))
		}
	}
	if len(failures) > 0 {
		return recs, fmt.Errorf("%d scenario cell(s) failed their SLOs:\n%s", len(failures), strings.Join(failures, ""))
	}
	return recs, nil
}
