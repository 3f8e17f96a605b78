package psd

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/slo"
)

// requirePassed fails the test with the failing laws when a workload's
// verdict did not pass.
func requirePassed(t *testing.T, v Verdict) {
	t.Helper()
	if !v.Passed {
		t.Fatalf("conservation laws failed:\n%s", slo.Report(slo.Failures(v.SLO)))
	}
}

// ledger is a hand-built registry: name -> value, counters only (the
// laws read counters and gauges alike through snapshot sums).
type ledger map[string]uint64

func (l ledger) judge(laws []slo.Check) []slo.Result {
	reg := metrics.NewRegistry()
	for name, v := range l {
		dot := strings.LastIndexByte(name, '.')
		reg.Scope(name[:dot]).NewCounter(name[dot+1:]).Add(v)
	}
	var s slo.Suite
	s.Add(laws...)
	return s.Eval(slo.NewContext(reg, time.Second))
}

// churnLedger is a balanced churn registry: one host, two planned
// connections (four setups), one orphan.
func churnLedger() ledger {
	return ledger{
		"host.a.core.conn_setup":      4,
		"host.a.core.conn_teardown":   3,
		"host.a.core.orphans_aborted": 1,
		"host.a.core.sessions_made":   4,
		"host.a.core.sessions_reaped": 4,
		"host.a.core.sessions":        0,
		"host.a.core.ports_in_use":    0,
		"host.a.tcp_state.time_wait":  0,
	}
}

// TestLawsCatchOneBrokenLaw evaluates each runner's laws against a
// registry that satisfies them, then against the same registry with
// exactly one law broken: the balanced verdict passes, and the broken
// one fails naming that law and no other.
func TestLawsCatchOneBrokenLaw(t *testing.T) {
	dirs := []trunkDir{
		{tx: "trunk.t0.bb.t0", peerRx: "router.r0.port.r0.t0.rx_frames"},
		{tx: "trunk.t0.r0.t0", peerRx: "router.bb.port.bb.t0.rx_frames"},
	}
	cityLedger := func() ledger {
		l := churnLedger()
		for _, d := range dirs {
			l[d.tx+".frames_sent"] = 10
			l[d.tx+".frames_dup"] = 1
			l[d.tx+".delivery_events"] = 9
			l[d.tx+".drops_loss"] = 2
			l[d.peerRx] = 9
		}
		return l
	}
	lbLedger := func() ledger {
		return ledger{
			"lb.served":                        3,
			"lb.failed":                        1,
			"lb.backend.be0.served":            2,
			"lb.backend.be1.served":            1,
			"host.lb.dataplane.ct.flows":       0,
			"host.lb.dataplane.lb.snat_in_use": 0,
			"host.lb.core.conn_setup":          8,
			"host.lb.core.conn_teardown":       8,
			"host.lb.core.sessions_made":       8,
			"host.lb.core.sessions_reaped":     8,
			"host.lb.tcp_state.time_wait":      0,
		}
	}
	churn := churnLaws(Decomposed(), 2)
	city := append(churnLaws(Decomposed(), 2), trunkLaws(dirs)...)
	lb := lbLaws(Decomposed(), 4)
	for _, tc := range []struct {
		name    string
		laws    []slo.Check
		ledger  func() ledger
		breakIt func(ledger)
		want    string
	}{
		{"churn/sessions-made-not-reaped", churn, churnLedger,
			func(l ledger) { l["host.a.core.sessions_reaped"] = 3 }, "sessions-reaped"},
		{"city/trunk-frame-unaccounted", city, cityLedger,
			func(l ledger) { l["trunk.t0.r0.t0.frames_sent"] = 11 }, "trunk-frames-conserved"},
		{"lb/served-plus-failed-not-planned", lb, lbLedger,
			func(l ledger) { l["lb.failed"] = 2 }, "lb-conns-accounted"},
		{"lb/conntrack-flow-left", lb, lbLedger,
			func(l ledger) { l["host.lb.dataplane.ct.flows"] = 1 }, "no-flow-leak"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.ledger()
			if rs := l.judge(tc.laws); !slo.Passed(rs) {
				t.Fatalf("balanced ledger failed:\n%s", slo.Report(slo.Failures(rs)))
			}
			tc.breakIt(l)
			rs := l.judge(tc.laws)
			fails := slo.Failures(rs)
			if slo.Passed(rs) || len(fails) != 1 || fails[0].Name != tc.want {
				t.Fatalf("want exactly %q to fail, got:\n%s", tc.want, slo.Report(rs))
			}
		})
	}
}
