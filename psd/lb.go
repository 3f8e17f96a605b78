package psd

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/slo"
)

// LBConfig parameterizes the load-balancer churn workload: clients
// connecting through a VIP while the backend pool changes under them.
// Mid-run one backend is killed (its embryonic flows re-home, its
// established flows are reset) and a fresh backend joins; the report's
// Verdict then demands that every client connection was served by
// exactly one backend or visibly failed, and that no flow or SNAT port
// leaked through the churn.
type LBConfig struct {
	Seed           int64
	Arch           Arch
	Backends       int // initial pool size
	Clients        int
	ConnsPerClient int           // sequential connections per client
	MsgBytes       int           // request/response payload per connection
	ConnGap        time.Duration // client pause between connections (paces the run)

	KillAt time.Duration // virtual time to kill backend 0 (0 = never)
	AddAt  time.Duration // virtual time to add a fresh backend (0 = never)

	Drain time.Duration // idle time for conntrack GC to empty the table (0 = 90 s)
}

// DefaultLB is the churn point the acceptance gate runs at: 48
// connections across 4 clients and a 3-backend pool, with a kill and a
// re-add landing mid-run.
func DefaultLB(seed int64) LBConfig {
	return LBConfig{
		Seed:           seed,
		Arch:           Decomposed(),
		Backends:       3,
		Clients:        4,
		ConnsPerClient: 12,
		MsgBytes:       256,
		ConnGap:        50 * time.Millisecond,
		KillAt:         150 * time.Millisecond,
		AddAt:          300 * time.Millisecond,
	}
}

// LBReport is the outcome of one load-balancer churn run: headline
// numbers and the verdict of its conservation laws. The client-observed
// counts live in the registry's "lb" workload scope (lb.served,
// lb.failed, lb.backend.<name>.served), where the laws read them.
type LBReport struct {
	ConnsPlan int   `json:"conns_planned"`
	Served    int64 `json:"served"` // full request/response exchanges
	Failed    int64 `json:"failed"` // connections reset or refused under churn

	// BackendServed counts client-observed serves by backend pool index
	// (the response names its server).
	BackendServed []int64 `json:"backend_served"`

	// Plane accounting on the load-balancer host.
	Rehomed int64 `json:"rehomed"`
	Resets  int64 `json:"resets"`

	Verdict
	Snapshot *MetricsSnapshot `json:"-"`
}

// lbLaws are the VIP conservation laws: every planned connection either
// completed against exactly one backend or failed visibly, at least one
// backend served, and the churn left no conntrack flow, SNAT port, or
// TIME_WAIT socket behind — nor, where hosts run an OS server, a
// session or port.
func lbLaws(arch Arch, planned int64) []slo.Check {
	var laws []slo.Check
	if arch.hasOSServer() {
		laws = osServerLaws()
	}
	return append(laws,
		slo.Expr("lb-conns-accounted", func(c *slo.Context) (bool, string) {
			served, failed := c.Snap.Sum("lb.served"), c.Snap.Sum("lb.failed")
			return served+failed == planned, fmt.Sprintf("served %d + failed %d, planned %d", served, failed, planned)
		}),
		slo.Expr("lb-one-backend-per-conn", func(c *slo.Context) (bool, string) {
			var byBackend int64
			for _, it := range c.Snap.Items {
				if strings.HasPrefix(it.Name, "lb.backend.") && strings.HasSuffix(it.Name, ".served") {
					byBackend += it.Value
				}
			}
			served := c.Snap.Sum("lb.served")
			return byBackend == served, fmt.Sprintf("per-backend serves sum to %d, served %d", byBackend, served)
		}),
		slo.SumAtLeast("lb-served", "lb.served", 1),
		slo.SumZero("no-flow-leak", ".dataplane.ct.flows"),
		slo.SumZero("no-snat-leak", ".dataplane.lb.snat_in_use"),
		slo.SumZero("no-time-wait-leak", ".tcp_state.time_wait"),
	)
}

const (
	lbVIPAddr  = "10.0.0.100"
	lbVIPPort  = uint16(80)
	lbBackPort = uint16(8080)
	lbQuitByte = 'Q' // request prefix that tells a backend to stop serving
)

// RunLB builds a network — one load-balancer host, a backend pool, and
// client hosts — runs the churn workload to completion plus drain, and
// judges the registry. Deterministic for a given config: two runs
// produce byte-identical registry snapshots and verdicts.
func RunLB(cfg LBConfig) (*LBReport, error) {
	if cfg.Backends < 2 {
		return nil, fmt.Errorf("lb: need at least 2 backends")
	}
	if cfg.MsgBytes < 8 {
		cfg.MsgBytes = 8
	}
	if cfg.ConnGap <= 0 {
		cfg.ConnGap = 20 * time.Millisecond
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 90 * time.Second
	}
	n := NewConfig(Config{Seed: cfg.Seed, Metrics: true})

	lb := n.Host("lb", "10.0.0.2", cfg.Arch)
	// One spare pool slot: AddAt installs backend index cfg.Backends.
	total := cfg.Backends
	if cfg.AddAt > 0 {
		total++
	}
	backends := make([]*Host, total)
	for i := range backends {
		backends[i] = n.Host(fmt.Sprintf("be%d", i), fmt.Sprintf("10.0.1.%d", i+1), cfg.Arch)
	}
	clients := make([]*Host, cfg.Clients)
	for j := range clients {
		clients[j] = n.Host(fmt.Sprintf("cli%d", j), fmt.Sprintf("10.0.2.%d", j+1), cfg.Arch)
	}

	specs := make([]BackendSpec, cfg.Backends)
	for i := range specs {
		specs[i] = BackendSpec{Host: backends[i], Port: lbBackPort}
	}
	vip, err := lb.InstallVIP(lbVIPAddr, lbVIPPort, specs...)
	if err != nil {
		return nil, err
	}

	wl := &harness{n: n, drain: cfg.Drain}
	wl.suite.Add(lbLaws(cfg.Arch, int64(cfg.Clients*cfg.ConnsPerClient))...)
	fail := func(err error) { wl.fail(0, err) }

	// The client-observed outcome, in the "lb" workload scope.
	sc := n.reg.Scope("lb")
	served, failed := sc.NewCounter("served"), sc.NewCounter("failed")
	backendServed := make([]*metrics.Counter, total)
	for i, b := range backends {
		backendServed[i] = sc.Sub("backend." + b.Name()).NewCounter("served")
	}

	// Backends: serve request/response exchanges until a quit request
	// arrives. Responses carry the backend's name so clients can account
	// serves per pool member.
	for i, h := range backends {
		i, h := i, h
		app := h.NewApp("backend")
		h.Spawn(fmt.Sprintf("be%d", i), func(t *Thread) {
			ls, err := app.Socket(t, SockStream)
			if err != nil {
				fail(err)
				return
			}
			if err := app.Bind(t, ls, SockAddr{Port: lbBackPort}); err != nil {
				fail(err)
				return
			}
			app.Listen(t, ls, 64)
			req := make([]byte, cfg.MsgBytes)
			resp := make([]byte, cfg.MsgBytes)
			copy(resp, h.Name())
			for {
				fd, _, err := app.Accept(t, ls)
				if err != nil {
					fail(err)
					return
				}
				got := 0
				dead := false
				for got < cfg.MsgBytes {
					n, err := app.Recv(t, fd, req[got:], 0)
					if err != nil || n == 0 {
						dead = true // client reset under churn; keep serving
						break
					}
					got += n
				}
				if !dead {
					if req[0] == lbQuitByte {
						app.Close(t, fd)
						break
					}
					// A send error here means the client was reset under
					// churn; the connection is already accounted failed on
					// the client side.
					_, _ = app.Send(t, fd, resp, 0)
				}
				app.Close(t, fd)
			}
			app.Close(t, ls)
		})
	}

	// Pool-churn controller on the load balancer's shard.
	if cfg.KillAt > 0 || cfg.AddAt > 0 {
		lb.Spawn("pool-ctl", func(t *Thread) {
			if cfg.KillAt > 0 {
				t.Sleep(cfg.KillAt)
				vip.KillBackend(0)
			}
			if cfg.AddAt > 0 {
				if d := cfg.AddAt - cfg.KillAt; d > 0 {
					t.Sleep(d)
				}
				nb := backends[total-1]
				vip.AddBackend(PoolBackend{
					Name: nb.Name(), IP: nb.ip, Port: lbBackPort, MAC: nb.kern.NIC.MAC(),
				})
			}
		})
	}

	// Clients: sequential connections through the VIP, tolerating (and
	// counting) failures during the churn window.
	backendIdx := func(name string) int {
		for i, b := range backends {
			if b.Name() == name {
				return i
			}
		}
		return -1
	}
	for j, h := range clients {
		j, h := j, h
		app := h.NewApp("client")
		h.Spawn(fmt.Sprintf("cli%d", j), func(t *Thread) {
			t.Sleep(time.Duration(j) * 5 * time.Millisecond)
			req := make([]byte, cfg.MsgBytes)
			copy(req, fmt.Sprintf("req cli%d", j))
			buf := make([]byte, cfg.MsgBytes)
			for k := 0; k < cfg.ConnsPerClient; k++ {
				if k > 0 {
					t.Sleep(cfg.ConnGap)
				}
				fd, err := app.Socket(t, SockStream)
				if err != nil {
					fail(err)
					return
				}
				oneConn := func() bool {
					if err := app.Connect(t, fd, Addr(lbVIPAddr, lbVIPPort)); err != nil {
						return false
					}
					if _, err := app.Send(t, fd, req, 0); err != nil {
						return false
					}
					got := 0
					for got < cfg.MsgBytes {
						n, err := app.Recv(t, fd, buf[got:], 0)
						if err != nil || n == 0 {
							return false
						}
						got += n
					}
					return true
				}
				if oneConn() {
					served.Inc()
					name := string(buf)
					if z := strings.IndexByte(name, 0); z >= 0 {
						name = name[:z]
					}
					if bi := backendIdx(name); bi >= 0 {
						backendServed[bi].Inc()
					} else {
						fail(fmt.Errorf("lb: response named unknown backend %q", name))
					}
				} else {
					failed.Inc()
				}
				app.Close(t, fd)
			}
		})
	}

	// Quitter: after every client finishes, tell each backend directly
	// (not through the VIP) to stop serving, so their accept loops exit.
	// Clients' threads are tracked by Run; we order the quitter after
	// them with a generous sleep past the workload's worst-case span.
	span := time.Duration(cfg.Clients)*5*time.Millisecond +
		time.Duration(cfg.ConnsPerClient)*(cfg.ConnGap+200*time.Millisecond) +
		5*time.Second
	qapp := clients[0].NewApp("quitter")
	clients[0].Spawn("quitter", func(t *Thread) {
		t.Sleep(span)
		req := make([]byte, cfg.MsgBytes)
		req[0] = lbQuitByte
		for i, b := range backends {
			fd, err := qapp.Socket(t, SockStream)
			if err != nil {
				fail(err)
				return
			}
			if err := qapp.Connect(t, fd, b.Addr(lbBackPort)); err != nil {
				fail(fmt.Errorf("lb: quit be%d: %w", i, err))
				return
			}
			if _, err := qapp.Send(t, fd, req, 0); err != nil {
				fail(err)
			}
			qapp.Close(t, fd)
		}
	})

	if err := wl.run(); err != nil {
		return nil, err
	}
	ctx, v := wl.judge()
	plane := lb.Dataplane()
	rep := &LBReport{
		ConnsPlan:     cfg.Clients * cfg.ConnsPerClient,
		Served:        int64(served.Value()),
		Failed:        int64(failed.Value()),
		BackendServed: make([]int64, total),
		Rehomed:       int64(plane.Stats.LBRehomed.Value()),
		Resets:        int64(plane.Stats.LBResets.Value()),
		Verdict:       v,
		Snapshot:      &ctx.Snap,
	}
	for i, c := range backendServed {
		rep.BackendServed[i] = int64(c.Value())
	}
	return rep, nil
}
