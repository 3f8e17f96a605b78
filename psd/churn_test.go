package psd_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/slo"
	"repro/psd"
)

// requirePassed fails the test with the failing laws when a workload's
// verdict did not pass.
func requirePassed(t *testing.T, v psd.Verdict) {
	t.Helper()
	if !v.Passed {
		t.Fatalf("conservation laws failed:\n%s", slo.Report(slo.Failures(v.SLO)))
	}
}

// smallChurn is a quick configuration for the determinism and
// architecture-coverage tests.
func smallChurn(seed int64, arch psd.Arch) psd.ChurnConfig {
	return psd.ChurnConfig{
		Seed:           seed,
		Servers:        2,
		Clients:        8,
		ConnsPerClient: 5,
		OrphanEvery:    4,
		MsgBytes:       256,
		Arch:           arch,
		Drain:          75 * time.Second,
	}
}

// TestChurnSmall runs a small churn on the decomposed architecture,
// where the OS server's lifecycle laws apply.
func TestChurnSmall(t *testing.T) {
	rep, err := psd.RunChurn(smallChurn(1, psd.Decomposed()))
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep.Verdict)
	if rep.Snapshot.Sum(".core.orphans_aborted") == 0 {
		t.Error("no orphans aborted; the orphan path did not run")
	}
	if got, want := rep.Snapshot.Sum(".core.conn_setup"), int64(2*rep.ConnsPlan); got != want {
		t.Errorf("conn setups = %d, want %d (both ends of every planned conn)", got, want)
	}
}

// TestChurnBaselineArchitectures runs the churn on the baselines, which
// have no OS server: the workload must complete and leave no TIME_WAIT
// residue.

func TestChurnBaselineArchitectures(t *testing.T) {
	for _, tc := range []struct {
		name string
		arch psd.Arch
	}{
		{"inkernel", psd.InKernel()},
		{"server", psd.ServerBased()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallChurn(1, tc.arch)
			cfg.OrphanEvery = 0 // orphan abort is a decomposed-architecture feature
			rep, err := psd.RunChurn(cfg)
			if err != nil {
				t.Fatal(err)
			}
			requirePassed(t, rep.Verdict)
		})
	}
}

// TestChurnDeterminism asserts the headline reproducibility property:
// two runs with the same seed produce byte-identical JSON registry
// snapshots and verdict reports, on every architecture. Run with -count=2 in CI so the
// property also holds across process invocations.
func TestChurnDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		arch psd.Arch
	}{
		{"decomposed", psd.Decomposed()},
		{"inkernel", psd.InKernel()},
		{"server", psd.ServerBased()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			render := func() []byte {
				cfg := smallChurn(7, tc.arch)
				if tc.name != "decomposed" {
					cfg.OrphanEvery = 0
				}
				rep, err := psd.RunChurn(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := metrics.WriteJSON(&buf, *rep.Snapshot); err != nil {
					t.Fatal(err)
				}
				buf.WriteString(slo.Report(rep.SLO))
				return buf.Bytes()
			}
			a, b := render(), render()
			if !bytes.Equal(a, b) {
				t.Fatalf("same seed produced different snapshots:\n--- run 1 ---\n%.2000s\n--- run 2 ---\n%.2000s", a, b)
			}
		})
	}
}

// TestChurnFullScale is the acceptance-scale run: >= 2,000 connections
// across >= 100 hosts, one in eight clients orphaned, verified entirely
// through registry values.
func TestChurnFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale churn skipped with -short")
	}
	rep, err := psd.RunChurn(psd.DefaultChurn(42))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hosts < 100 {
		t.Fatalf("hosts = %d, want >= 100", rep.Hosts)
	}
	if rep.ConnsPlan < 2000 {
		t.Fatalf("planned conns = %d, want >= 2000", rep.ConnsPlan)
	}
	requirePassed(t, rep.Verdict)
	if rep.Snapshot.Sum(".core.orphans_aborted") == 0 {
		t.Error("no orphans aborted at scale")
	}
	t.Logf("churn: %d hosts, %d conns\n%s", rep.Hosts, rep.ConnsPlan, slo.Report(rep.SLO))
}
