package psd

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/slo"
)

// Verdict is a workload run's acceptance outcome: every conservation
// law evaluated over the drained registry, in declaration order, so
// identical runs render byte-identical reports (slo.Report).
type Verdict struct {
	SLO    []SLOResult `json:"slo"`
	Passed bool        `json:"passed"`
}

// harness is the one acceptance mechanism under every workload runner
// (RunChurn, RunCity, RunLB, RunScenario): the network, the workload's
// laws as an SLO suite, and the drain that precedes the verdict. A
// runner builds its topology and laws, drives the workload with run,
// and reads the outcome with judge.
type harness struct {
	n     *Network
	suite slo.Suite
	drain time.Duration

	// Workload errors surface on whichever shard hits them first; the
	// mutex makes collection race-safe and the winner is re-picked
	// deterministically (lowest key, then earliest) after the run.
	mu   sync.Mutex
	errs []keyedErr
}

type keyedErr struct {
	key int
	err error
}

// fail records a workload error under a deterministic ordering key.
func (h *harness) fail(key int, err error) {
	if err == nil {
		return
	}
	h.mu.Lock()
	h.errs = append(h.errs, keyedErr{key, err})
	h.mu.Unlock()
}

// run executes the workload until every thread finishes, surfaces the
// first workload error, and otherwise advances the drain (2MSL plus
// port quarantine) so the laws see a quiescent network.
func (h *harness) run() error {
	if err := h.n.Run(); err != nil {
		return err
	}
	if len(h.errs) > 0 {
		first := h.errs[0]
		for _, e := range h.errs[1:] {
			if e.key < first.key {
				first = e
			}
		}
		return first.err
	}
	return h.n.RunFor(h.drain)
}

// judge evaluates the laws against the registry at the current virtual
// time.
func (h *harness) judge() (*slo.Context, Verdict) {
	ctx := slo.NewContext(h.n.reg, h.n.Now())
	rs := h.suite.Eval(ctx)
	return ctx, Verdict{SLO: rs, Passed: slo.Passed(rs)}
}

// osServerLaws are the OS server's connection-lifecycle laws, summed
// over every host's ".core" scope: each established connection was torn
// down or orphan-aborted, every session record was reaped, and no
// session or port outlived the drain. Only workloads whose hosts run an
// OS server (the decomposed architectures) add them.
func osServerLaws() []slo.Check {
	return []slo.Check{
		slo.Expr("conn-teardown-balance", func(c *slo.Context) (bool, string) {
			setups, down, orphans := c.Snap.Sum(".core.conn_setup"), c.Snap.Sum(".core.conn_teardown"), c.Snap.Sum(".core.orphans_aborted")
			return setups == down+orphans, fmt.Sprintf("setups %d, teardowns %d + orphans aborted %d", setups, down, orphans)
		}),
		slo.Expr("sessions-reaped", func(c *slo.Context) (bool, string) {
			made, reaped := c.Snap.Sum(".core.sessions_made"), c.Snap.Sum(".core.sessions_reaped")
			return made == reaped, fmt.Sprintf("sessions made %d, reaped %d", made, reaped)
		}),
		slo.SumZero("no-session-leak", ".core.sessions"),
		slo.SumZero("no-port-leak", ".core.ports_in_use"),
	}
}

// hasOSServer reports whether hosts of this architecture run an OS
// server, i.e. register a ".core" scope.
func (a Arch) hasOSServer() bool { return a.kind == 0 }

// trunkDir names one trunk direction's ledger in the registry: its
// transmit scope ("trunk.<t>.<link>") and the peer port's receive
// counter.
type trunkDir struct {
	tx, peerRx string
}

// trunkDirs lists every trunk direction of the network in creation
// order.
func (n *Network) trunkDirs() []trunkDir {
	var out []trunkDir
	for _, t := range n.trunks {
		for i, nic := range t.dirs {
			peer := t.dirs[1-i]
			out = append(out, trunkDir{
				tx:     "trunk." + t.name + "." + nic.Name(),
				peerRx: "router." + t.ends[1-i].Name() + ".port." + peer.Name() + ".rx_frames",
			})
		}
	}
	return out
}

// trunkLaws are the frame ledgers of the trunks: everything a direction
// serialized (plus fault duplicates) was delivered or dropped with a
// cause, and everything delivered was received on the peer port.
func trunkLaws(dirs []trunkDir) []slo.Check {
	v := func(c *slo.Context, name string) int64 {
		it, _ := c.Snap.Get(name)
		return it.Value
	}
	return []slo.Check{
		slo.Expr("trunk-frames-conserved", func(c *slo.Context) (bool, string) {
			var in, out int64
			for _, d := range dirs {
				sent, dup := v(c, d.tx+".frames_sent"), v(c, d.tx+".frames_dup")
				deliv := v(c, d.tx+".delivery_events")
				drops := v(c, d.tx+".drops_loss") + v(c, d.tx+".drops_down") +
					v(c, d.tx+".drops_malformed") + v(c, d.tx+".partition_drops")
				if sent+dup != deliv+drops {
					return false, fmt.Sprintf("%s: sent %d + dup %d != delivered %d + drops %d", d.tx, sent, dup, deliv, drops)
				}
				in, out = in+sent+dup, out+deliv+drops
			}
			return true, fmt.Sprintf("%d directions: sent+dup %d = delivered+drops %d", len(dirs), in, out)
		}),
		slo.Expr("trunk-deliveries-received", func(c *slo.Context) (bool, string) {
			var total int64
			for _, d := range dirs {
				deliv, got := v(c, d.tx+".delivery_events"), v(c, d.peerRx)
				if deliv != got {
					return false, fmt.Sprintf("%s: delivered %d, peer received %d", d.tx, deliv, got)
				}
				total += deliv
			}
			return true, fmt.Sprintf("%d directions: %d frames delivered and received", len(dirs), total)
		}),
	}
}

// dispatchLaw checks the run's own scheduler ledger: the per-shard
// event counters sum to the group total (classic runs are one implicit
// shard). The passing detail names only the total, which every shard
// count reproduces.
func (n *Network) dispatchLaw() slo.Check {
	return slo.Expr("shard-dispatch-sums", func(*slo.Context) (bool, string) {
		total, per := n.dispatched()
		var sum uint64
		for _, v := range per {
			sum += v
		}
		if sum != total {
			return false, fmt.Sprintf("per-shard counters %v sum to %d, group total %d", per, sum, total)
		}
		return true, fmt.Sprintf("shards sum to the group total, %d events", total)
	})
}

// dispatched returns the total event count and its per-shard split.
func (n *Network) dispatched() (uint64, []uint64) {
	if n.group != nil {
		return n.group.Dispatched()
	}
	d := n.sim.Dispatched()
	return d, []uint64{d}
}
