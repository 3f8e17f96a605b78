package offload

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/costs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// TestLROAllocBudget: a 1-byte pushed segment on an idle flow opens a
// merge and flushes it at once (the protolat request/response case), so
// its merge buffer must be sized to the frame, not to a full
// MaxCoalesce super-segment. The whole pass through Rx, delivery
// included, allocates at most twice the frame's length.
func TestLROAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run skipped in -short")
	}
	frame := tcpFrame(5000, 77, wire.TCPAck|wire.TCPPsh, []byte{'x'})
	s := sim.New(1)
	delivered := 0
	e := New(Config{
		Sim:   s,
		Name:  "rx-alloc",
		Up:    func(simnet.Frame) { delivered++ },
		Costs: costs.DECLibrarySHMIPFOffload().Offload,
	})
	// Arrivals further apart than the idle gap keep the flow idle, so
	// every segment flushes on arrival.
	gap := 2 * e.cfg.IdleGap
	var runErr error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Rx(simnet.Frame{Data: frame})
			if err := s.RunFor(gap); err != nil {
				runErr = err
				return
			}
		}
	})
	if runErr != nil {
		t.Fatalf("sim: %v", runErr)
	}
	if flushes := e.Stats.LROFlushes.Value(); delivered == 0 || uint64(delivered) != flushes {
		t.Fatalf("delivered %d frames with %d LRO flushes; want one flush per delivered segment", delivered, flushes)
	}
	got, budget := res.AllocedBytesPerOp(), int64(2*len(frame))
	t.Logf("1-byte idle PSH segment: %d B/op, %d allocs/op (budget %d B/op)", got, res.AllocsPerOp(), budget)
	if got > budget {
		t.Fatalf("1-byte idle PSH segment allocates %d B/op, budget %d (2x its %d-byte frame)", got, budget, len(frame))
	}
}

// TestLROMergeGrowsOnce: a full in-order merge of 32 MSS-sized segments
// grows its buffer at most once, and the super-segment still carries
// every payload byte in order.
func TestLROMergeGrowsOnce(t *testing.T) {
	env := newRxEnv(t)
	const n = 32
	mss := env.e.cfg.MSS
	var want []byte
	caps := map[int]bool{}
	for i := 0; i < n; i++ {
		pay := pattern(i*3, mss)
		want = append(want, pay...)
		env.e.Rx(simnet.Frame{Data: tcpFrame(uint32(1000+i*mss), 1, wire.TCPAck, pay)})
		for _, pend := range env.e.pending {
			caps[cap(pend.buf)] = true
		}
		if err := env.s.RunFor(10 * time.Microsecond); err != nil {
			t.Fatalf("sim: %v", err)
		}
	}
	env.run(t)
	if len(caps) > 2 {
		t.Fatalf("merge buffer took %d capacities over %d segments, want at most 2 (one growth)", len(caps), n)
	}
	if len(env.got) != 1 {
		t.Fatalf("deliveries = %d, want 1 super-segment", len(env.got))
	}
	if _, _, got := parseDelivery(t, env.got[0]); !bytes.Equal(got, want) {
		t.Fatalf("merged payload differs: %d bytes vs %d wanted", len(got), len(want))
	}
}
