package psd

import (
	"fmt"
	"time"
)

// CityConfig parameterizes the internet-scale sharded workload: many
// routed districts, each its own Ethernet segment behind a district
// router, joined to a backbone router over point-to-point trunks. Each
// district runs the connection-churn echo workload; a configurable
// fraction of connections crosses districts, so traffic exercises the
// trunk (and, in sharded runs, the conservative cross-shard
// synchronization) continuously.
//
// Districts are placed round-robin on the configured shards; the
// backbone router and every trunk's backbone end live on shard 0.
// Acceptance is the report's Verdict: the churn conservation laws, the
// trunk frame ledgers, and the per-shard dispatch ledger.
type CityConfig struct {
	Seed               int64
	Districts          int
	ServersPerDistrict int
	ClientsPerDistrict int
	ConnsPerClient     int // sequential connections per client
	CrossEvery         int // every Nth connection targets another district (0 = all local)
	OrphanEvery        int // every Nth client exits without closing its last conn (0 = none)
	MsgBytes           int // payload echoed once per connection
	Arch               Arch

	// Shards selects group mode (see Config.Shards); 0 runs the same
	// topology on the classic single event loop — the baseline sharded
	// runs are measured against.
	Shards         int
	SingleThreaded bool

	// TrunkProp is the trunk propagation delay, i.e. the group
	// lookahead (0 = 1 ms). Larger values widen the synchronization
	// windows.
	TrunkProp time.Duration

	Drain time.Duration // virtual drain after the workload (0 = 75 s)

	// Trace forwards to Config.Trace, for equivalence tests that diff
	// full traces between runs.
	Trace      []TraceLayer
	TraceLimit int
}

// DefaultCity is a four-district scale point small enough for tests.
func DefaultCity(seed int64, shards int) CityConfig {
	return CityConfig{
		Seed:               seed,
		Districts:          4,
		ServersPerDistrict: 2,
		ClientsPerDistrict: 6,
		ConnsPerClient:     3,
		CrossEvery:         2,
		OrphanEvery:        7,
		MsgBytes:           256,
		Arch:               Decomposed(),
		Shards:             shards,
	}
}

// CityReport is the outcome of a city run: the churn report (size,
// verdict, registry) plus the scheduler's own ledger.
type CityReport struct {
	ChurnReport

	Districts int `json:"districts"`
	Shards    int `json:"shards"`

	// DispatchedTotal is the group's event count (the single loop's in
	// classic runs); Windows the synchronization windows group runs took.
	DispatchedTotal uint64 `json:"dispatched_total"`
	Windows         uint64 `json:"windows"`

	// Trace is the run's flight recorder when CityConfig.Trace was set
	// (nil otherwise); equivalence tests diff its merged records.
	Trace *Recorder `json:"-"`
}

// districtCIDR carves districts out of 10/8: /24 per district, gateway
// at .1, hosts from .2. Supports up to 250 hosts per district and
// thousands of districts.
func districtCIDR(d int) (cidr, gw string) {
	hi, lo := 1+d/250, d%250
	return fmt.Sprintf("10.%d.%d.0/24", hi, lo), fmt.Sprintf("10.%d.%d.1", hi, lo)
}

func districtHostAddr(d, i int) string {
	hi, lo := 1+d/250, d%250
	return fmt.Sprintf("10.%d.%d.%d", hi, lo, i+2)
}

// trunkCIDR carves /30s out of 172.16/12: backbone end at .1 inside
// the /30, district end at .2.
func trunkCIDR(d int) (cidr, bbAddr, distAddr string) {
	hi, lo := 16+d/64, (d%64)*4
	return fmt.Sprintf("172.%d.%d.%d/30", hi, lo, 0),
		fmt.Sprintf("172.%d.%d.%d", hi, lo, 1),
		fmt.Sprintf("172.%d.%d.%d", hi, lo, 2)
}

// RunCity builds the districted topology, runs the churn workload to
// completion plus the drain period, and judges the registry: the churn
// laws, the trunk frame ledgers, and the per-shard dispatch ledger.
// Deterministic for a given config — and identical for every shard
// count and threading mode, which the equivalence tests in
// shard_test.go verify byte for byte.
func RunCity(cfg CityConfig) (*CityReport, error) {
	n, w, err := buildCity(&cfg)
	if err != nil {
		return nil, err
	}
	h := &harness{n: n, drain: cfg.Drain}
	h.suite.Add(trunkLaws(n.trunkDirs())...)
	h.suite.Add(n.dispatchLaw())
	churn, err := w.run(h, cfg.Arch)
	if err != nil {
		return nil, err
	}
	rep := &CityReport{ChurnReport: *churn, Districts: cfg.Districts, Shards: cfg.Shards, Trace: n.Trace()}
	rep.DispatchedTotal, _ = n.dispatched()
	if g := n.Group(); g != nil {
		rep.Windows = g.Windows()
	}
	return rep, nil
}

// buildCity builds the districted topology and the churn workload
// over it, one host group per district.
func buildCity(cfg *CityConfig) (*Network, *echoChurn, error) {
	if cfg.Districts <= 0 {
		return nil, nil, fmt.Errorf("city: Districts must be positive")
	}
	if cfg.ServersPerDistrict <= 0 || cfg.ClientsPerDistrict < 0 {
		return nil, nil, fmt.Errorf("city: need at least one server per district")
	}
	if cfg.ServersPerDistrict+cfg.ClientsPerDistrict > 250 {
		return nil, nil, fmt.Errorf("city: at most 250 hosts per district (/24 addressing)")
	}
	if cfg.TrunkProp <= 0 {
		cfg.TrunkProp = time.Millisecond
	}
	n := NewConfig(Config{
		Seed: cfg.Seed, Metrics: true,
		Shards: cfg.Shards, SingleThreaded: cfg.SingleThreaded,
		Trace: cfg.Trace, TraceLimit: cfg.TraceLimit,
	})
	w := &echoChurn{
		target:      func(d, j, k int) (int, int) { return cityTarget(cfg, d, j, k) },
		conns:       cfg.ConnsPerClient,
		orphanEvery: cfg.OrphanEvery,
		msgBytes:    cfg.MsgBytes,
	}

	backbone := n.NewRouterOn(0, "bb")
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	for d := 0; d < cfg.Districts; d++ {
		shard := 0
		if cfg.Shards > 0 {
			shard = d % shards
		}
		cidr, gw := districtCIDR(d)
		sub := n.NewSubnetOn(shard, fmt.Sprintf("d%d", d), cidr)
		rtr := n.NewRouterOn(shard, fmt.Sprintf("r%d", d))
		rtr.Attach(sub, gw)

		tcidr, bbAddr, distAddr := trunkCIDR(d)
		trunk := n.NewTrunk(fmt.Sprintf("t%d", d), tcidr, cfg.TrunkProp)
		trunk.Attach(backbone, bbAddr).Attach(rtr, distAddr)
		if err := backbone.AddRoute(cidr, distAddr); err != nil {
			return nil, nil, err
		}
		if err := rtr.AddRoute("0.0.0.0/0", bbAddr); err != nil {
			return nil, nil, err
		}

		srvs := make([]*Host, cfg.ServersPerDistrict)
		for i := range srvs {
			srvs[i] = sub.Host(fmt.Sprintf("d%ds%d", d, i), districtHostAddr(d, i), cfg.Arch)
		}
		clis := make([]*Host, cfg.ClientsPerDistrict)
		for j := range clis {
			clis[j] = sub.Host(fmt.Sprintf("d%dc%d", d, j),
				districtHostAddr(d, cfg.ServersPerDistrict+j), cfg.Arch)
		}
		w.servers = append(w.servers, srvs)
		w.clients = append(w.clients, clis)
	}
	return n, w, nil
}

// cityTarget picks the (district, server) a connection aims at. Cross
// connections rotate through the other districts so every trunk
// carries traffic in both directions.
func cityTarget(cfg *CityConfig, d, j, k int) (td, ts int) {
	td = d
	if cfg.CrossEvery > 0 && cfg.Districts > 1 && (k+1)%cfg.CrossEvery == 0 {
		td = (d + 1 + (j+k)%(cfg.Districts-1)) % cfg.Districts
	}
	return td, (j + k) % cfg.ServersPerDistrict
}
