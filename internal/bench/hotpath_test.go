package bench

import (
	"testing"
)

// Steady-state allocation budget for the TCP hot path. The seed tree spent
// ~69 heap allocations per transmitted segment on the Library ttcp
// workload; the pooled mbuf/checksum/event hot path brings that under 6.
// The budget below is deliberately loose (pool warm-up, world
// construction, and map growth all amortize differently across machines)
// but pins the order of magnitude: a regression back to per-packet
// allocation would blow through it immediately.
const allocsPerSegmentBudget = 15.0

// TestSteadyStateTCPAllocBudget runs the paper's headline configuration
// (Library-SHM-IPF) end to end — sender stack, wire, receiver stack,
// ack path — and asserts the whole run stays inside the per-segment
// allocation budget.
func TestSteadyStateTCPAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run skipped in -short")
	}
	cfg := DECConfigs()[5] // Library-SHM-IPF
	var w *World
	restore := captureBuild(&w)
	defer restore()

	segs := 0
	run := func() {
		r := RunTTCP(cfg, cfg.RcvBufKB, 2<<20)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if w != nil && w.hostA.NIC.TxFrames.Value() > 0 {
			segs = int(w.hostA.NIC.TxFrames.Value())
		}
	}
	run() // warm the global buffer pools

	allocs := testing.AllocsPerRun(3, run)
	if segs == 0 {
		t.Fatal("no transmitted segments observed")
	}
	perSeg := allocs / float64(segs)
	t.Logf("steady-state TCP: %.0f allocs/run over %d segments = %.2f allocs/segment (budget %.0f)",
		allocs, segs, perSeg, allocsPerSegmentBudget)
	if perSeg > allocsPerSegmentBudget {
		t.Fatalf("TCP hot path allocates %.2f objects/segment; budget is %.0f", perSeg, allocsPerSegmentBudget)
	}
}

// TestHotpathSuiteRuns is the smoke test for the benchmark harness itself:
// every workload in the suite must complete and report sane metrics on a
// tiny transfer.
func TestHotpathSuiteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke run skipped in -short")
	}
	for _, wl := range hotpathSuite() {
		virt, segs, err := wl.run(128<<10, 4)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if virt <= 0 {
			t.Errorf("%s: nonpositive virtual duration %v", wl.name, virt)
		}
		if segs <= 0 {
			t.Errorf("%s: no segments counted", wl.name)
		}
	}
}
