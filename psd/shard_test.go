package psd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/slo"
	"repro/internal/trace"
)

// cityDigest runs a city and reduces it to a byte string that any
// equivalent run must reproduce exactly: the full merged trace, the
// metrics snapshot (minus its wall-clock-free but stop-time-dependent
// At stamp), the verdict report — conservation quantities and trunk
// frame ledgers included — and the total event count. Per-shard and per-window quantities are
// deliberately excluded — they describe the execution, not the
// simulation.
func cityDigest(t *testing.T, cfg CityConfig) string {
	t.Helper()
	cfg.Trace = []TraceLayer{TraceNet, TraceStack, TraceCore, TraceFilter}
	rep, err := RunCity(cfg)
	if err != nil {
		t.Fatalf("RunCity(shards=%d single=%v): %v", cfg.Shards, cfg.SingleThreaded, err)
	}
	if !rep.Passed {
		t.Fatalf("conservation (shards=%d single=%v):\n%s", cfg.Shards, cfg.SingleThreaded, slo.Report(slo.Failures(rep.SLO)))
	}
	var b bytes.Buffer
	if err := trace.WriteText(&b, rep.Trace.Records()); err != nil {
		t.Fatal(err)
	}
	items, err := json.Marshal(rep.Snapshot.Items)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(items)
	b.WriteString(slo.Report(rep.SLO))
	fmt.Fprintf(&b, "dispatched=%d", rep.DispatchedTotal)
	return b.String()
}

// diffDigest reports the first line where two digests diverge, so a
// determinism break points at a specific trace record instead of a
// megabyte blob.
func diffDigest(t *testing.T, label, a, b string) {
	t.Helper()
	if a == b {
		return
	}
	la, lb := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			t.Fatalf("%s: digests diverge at line %d:\n  a: %s\n  b: %s", label, i+1, la[i], lb[i])
		}
	}
	t.Fatalf("%s: digests diverge in length: %d vs %d lines", label, len(la), len(lb))
}

// TestCityConservation is the RunCity acceptance gate at test scale:
// the districted workload completes and every conservation law holds,
// classic and sharded.
func TestCityConservation(t *testing.T) {
	for _, shards := range []int{0, 2} {
		rep, err := RunCity(DefaultCity(1, shards))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		requirePassed(t, rep.Verdict)
		if rep.Snapshot.Sum(".core.orphans_aborted") == 0 {
			t.Fatalf("shards=%d: no orphans aborted; OrphanEvery did not bite", shards)
		}
		// DefaultCity plans cross-district connections, so an idle trunk
		// means the routing (or the cross pattern) silently broke.
		for _, it := range rep.Snapshot.Items {
			if strings.HasPrefix(it.Name, "trunk.") && strings.HasSuffix(it.Name, ".frames_sent") && it.Value == 0 {
				t.Fatalf("shards=%d: %s carried no traffic", shards, it.Name)
			}
		}
	}
}

// TestCitySerialParallelIdentical is the tentpole oracle: the same
// sharded city run serially and on worker goroutines produces byte-
// identical traces, metrics, and ledgers. Run with -count=2 it also
// proves run-to-run determinism of each mode.
func TestCitySerialParallelIdentical(t *testing.T) {
	cfg := DefaultCity(42, 3)
	cfg.SingleThreaded = true
	serial := cityDigest(t, cfg)
	cfg.SingleThreaded = false
	parallel := cityDigest(t, cfg)
	diffDigest(t, "serial vs parallel", serial, parallel)
}

// TestCityShardCountInvariance pins the reshard guarantee: 1, 2, 8,
// and NumCPU shards — including counts above the district count, which
// leave shards empty — all reproduce the single-shard reference
// schedule exactly.
func TestCityShardCountInvariance(t *testing.T) {
	ref := cityDigest(t, DefaultCity(7, 1))
	counts := []int{2, 8, runtime.NumCPU()}
	if testing.Short() {
		counts = []int{2, 8}
	}
	for _, k := range counts {
		cfg := DefaultCity(7, k)
		diffDigest(t, fmt.Sprintf("shards=1 vs shards=%d", k), ref, cityDigest(t, cfg))
	}
}

// TestCityClassicGroupLawsAgree checks the group scheduler against the
// classic single loop on the same topology: the metrics registry and
// every conservation quantity agree item for item (the trace is
// organized differently — lanes — so it is compared only within group
// mode).
func TestCityClassicGroupLawsAgree(t *testing.T) {
	classic, err := RunCity(DefaultCity(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := RunCity(DefaultCity(9, 2))
	if err != nil {
		t.Fatal(err)
	}
	cj, _ := json.Marshal(classic.Snapshot.Items)
	gj, _ := json.Marshal(grouped.Snapshot.Items)
	diffDigest(t, "classic vs group registry", string(cj), string(gj))
	if classic.DispatchedTotal != grouped.DispatchedTotal {
		t.Fatalf("dispatched: classic %d, group %d", classic.DispatchedTotal, grouped.DispatchedTotal)
	}
}

// TestCityPropertyRandomTopologies is the property test: random
// topology shapes and seeds, each run serially and in parallel, must
// match byte for byte. The shapes come from a fixed meta-seed so
// failures reproduce.
func TestCityPropertyRandomTopologies(t *testing.T) {
	iters := 4
	if testing.Short() {
		iters = 2
	}
	meta := rand.New(rand.NewSource(20260808))
	for it := 0; it < iters; it++ {
		cfg := CityConfig{
			Seed:               meta.Int63(),
			Districts:          1 + meta.Intn(4),
			ServersPerDistrict: 1 + meta.Intn(2),
			ClientsPerDistrict: 1 + meta.Intn(4),
			ConnsPerClient:     1 + meta.Intn(3),
			CrossEvery:         meta.Intn(3),
			OrphanEvery:        meta.Intn(2) * 5,
			MsgBytes:           64 + meta.Intn(3)*192,
			Arch:               Decomposed(),
			TrunkProp:          time.Duration(1+meta.Intn(5)) * 500 * time.Microsecond,
		}
		cfg.Shards = 1 + meta.Intn(cfg.Districts+2)
		label := fmt.Sprintf("iter %d (seed=%d districts=%d shards=%d)", it, cfg.Seed, cfg.Districts, cfg.Shards)
		cfg.SingleThreaded = true
		serial := cityDigest(t, cfg)
		cfg.SingleThreaded = false
		parallel := cityDigest(t, cfg)
		diffDigest(t, label, serial, parallel)
	}
}

// TestChurnDistricted runs the churn workload on the districted,
// sharded build: the churn laws hold there as on the flat segment.
func TestChurnDistricted(t *testing.T) {
	rep, err := RunCity(CityConfig{
		Seed:               3,
		Districts:          2,
		ServersPerDistrict: 2,
		ClientsPerDistrict: 6,
		ConnsPerClient:     4,
		CrossEvery:         4,
		OrphanEvery:        6,
		MsgBytes:           256,
		Arch:               Decomposed(),
		Shards:             2,
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep.Verdict)
	if rep.Hosts != 16 {
		t.Fatalf("hosts = %d, want 16", rep.Hosts)
	}
}
