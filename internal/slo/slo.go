// Package slo evaluates service-level-objective assertions over the
// deterministic metrics registry. A Suite is a named list of checks —
// quantile bounds on latency histograms, ceilings on drop counters,
// conservation laws over state gauges — and evaluating it against a
// registry yields a pass/fail verdict per check. Scenario tests and CI
// gates are built from these verdicts: because the simulation is
// deterministic, an SLO that passes once passes forever, and a failure
// is a reproducible counterexample rather than flake.
package slo

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Context carries what checks evaluate against: a snapshot for counter
// and gauge sums, plus the live registry for cross-host histogram
// merges (quantiles cannot be recovered from rendered views).
type Context struct {
	Reg  *metrics.Registry
	Snap metrics.Snapshot
}

// NewContext snapshots the registry at virtual time `at`.
func NewContext(reg *metrics.Registry, at time.Duration) *Context {
	return &Context{Reg: reg, Snap: reg.Snapshot(at)}
}

// Check is one named assertion.
type Check struct {
	Name string
	Eval func(*Context) (ok bool, detail string)
}

// Result is one evaluated assertion.
type Result struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func (r Result) String() string {
	verdict := "PASS"
	if !r.OK {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s %-28s %s", verdict, r.Name, r.Detail)
}

// Suite is an ordered list of checks; evaluation order is declaration
// order, so reports are byte-stable.
type Suite struct {
	Checks []Check
}

// Add appends checks and returns the suite for chaining.
func (s *Suite) Add(cs ...Check) *Suite {
	s.Checks = append(s.Checks, cs...)
	return s
}

// Eval runs every check against the context.
func (s *Suite) Eval(ctx *Context) []Result {
	out := make([]Result, 0, len(s.Checks))
	for _, c := range s.Checks {
		ok, detail := c.Eval(ctx)
		out = append(out, Result{Name: c.Name, OK: ok, Detail: detail})
	}
	return out
}

// Passed reports whether every result passed.
func Passed(rs []Result) bool {
	for _, r := range rs {
		if !r.OK {
			return false
		}
	}
	return true
}

// Failures returns the failing subset, in order.
func Failures(rs []Result) []Result {
	var out []Result
	for _, r := range rs {
		if !r.OK {
			out = append(out, r)
		}
	}
	return out
}

// Report renders results one per line.
func Report(rs []Result) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// QuantileAtMost asserts that quantile q of every histogram whose name
// ends in suffix — merged across hosts — is at most bound. The check
// fails when no histogram recorded a sample: an SLO over an idle metric
// is a misconfigured scenario, not a pass.
func QuantileAtMost(name, suffix string, q float64, bound time.Duration) Check {
	return Check{Name: name, Eval: func(ctx *Context) (bool, string) {
		h := ctx.Reg.MergedHistogram(suffix)
		n := h.Count()
		if n == 0 {
			return false, fmt.Sprintf("no samples under *%s", suffix)
		}
		v := time.Duration(h.Quantile(q))
		return v <= bound, fmt.Sprintf("p%g(*%s) = %v (bound %v, n=%d)", q*100, suffix, v, bound, n)
	}}
}

// SumAtMost asserts the sum over all instruments ending in suffix is at
// most max (drop ceilings, error budgets).
func SumAtMost(name, suffix string, max int64) Check {
	return Check{Name: name, Eval: func(ctx *Context) (bool, string) {
		v := ctx.Snap.Sum(suffix)
		return v <= max, fmt.Sprintf("sum(*%s) = %d (max %d)", suffix, v, max)
	}}
}

// SumAtLeast asserts the sum over all instruments ending in suffix is
// at least min (the scenario actually did work).
func SumAtLeast(name, suffix string, min int64) Check {
	return Check{Name: name, Eval: func(ctx *Context) (bool, string) {
		v := ctx.Snap.Sum(suffix)
		return v >= min, fmt.Sprintf("sum(*%s) = %d (min %d)", suffix, v, min)
	}}
}

// SumZero asserts the sum over all instruments ending in suffix is
// exactly zero — conservation laws over state gauges after drain.
func SumZero(name, suffix string) Check {
	return Check{Name: name, Eval: func(ctx *Context) (bool, string) {
		v := ctx.Snap.Sum(suffix)
		return v == 0, fmt.Sprintf("sum(*%s) = %d (want 0)", suffix, v)
	}}
}

// RatioAtMost asserts sum(num)/sum(den) <= max (bounded drop ratios).
// A zero denominator passes only if the numerator is also zero.
func RatioAtMost(name, numSuffix, denSuffix string, max float64) Check {
	return Check{Name: name, Eval: func(ctx *Context) (bool, string) {
		num := ctx.Snap.Sum(numSuffix)
		den := ctx.Snap.Sum(denSuffix)
		if den == 0 {
			return num == 0, fmt.Sprintf("sum(*%s) = %d with sum(*%s) = 0", numSuffix, num, denSuffix)
		}
		ratio := float64(num) / float64(den)
		return ratio <= max, fmt.Sprintf("sum(*%s)/sum(*%s) = %d/%d = %.4f (max %.4f)",
			numSuffix, denSuffix, num, den, ratio, max)
	}}
}

// Expr wraps an arbitrary predicate as a check.
func Expr(name string, eval func(*Context) (bool, string)) Check {
	return Check{Name: name, Eval: eval}
}
