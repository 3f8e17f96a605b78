package psd

import (
	"fmt"
	"time"

	"repro/internal/slo"
)

// ChurnConfig parameterizes the connection-churn scale workload: many
// hosts on one flat segment opening and closing thousands of short-
// lived TCP connections, with a fraction of clients dying without
// cleanup so the OS servers' orphan-abort machinery runs at scale.
// Acceptance is the report's Verdict: conservation laws over the
// metrics registry. RunCity runs the same workload on a districted,
// shardable topology.
type ChurnConfig struct {
	Seed           int64
	Servers        int // echo-server hosts
	Clients        int // client hosts
	ConnsPerClient int // sequential connections per client
	OrphanEvery    int // every Nth client exits without closing its last conn (0 = none)
	MsgBytes       int // payload echoed once per connection
	Arch           Arch
	Drain          time.Duration // virtual time after the workload for TIME_WAIT and port quarantines to expire (0 = 75 s)
}

// DefaultChurn is the scale point the acceptance criteria call for:
// 2,016 connections across 106 hosts, one in eight clients orphaned.
func DefaultChurn(seed int64) ChurnConfig {
	return ChurnConfig{
		Seed:           seed,
		Servers:        10,
		Clients:        96,
		ConnsPerClient: 21,
		OrphanEvery:    8,
		MsgBytes:       512,
		Arch:           Decomposed(),
	}
}

// ChurnReport is the outcome of a churn run: its size and the verdict
// of its conservation laws over the drained registry.
type ChurnReport struct {
	Hosts     int `json:"hosts"`
	ConnsPlan int `json:"conns_planned"`
	Verdict

	Snapshot *MetricsSnapshot `json:"-"`
}

const churnPort = 5001

// RunChurn builds the flat network, runs the workload to completion
// plus the drain period, and judges the registry. Deterministic for a
// given config: two runs with the same seed produce byte-identical
// snapshots and verdicts.
func RunChurn(cfg ChurnConfig) (*ChurnReport, error) {
	n := NewConfig(Config{Seed: cfg.Seed, Metrics: true})

	// Servers at 10.0.1.x, clients at 10.0.2.x/10.0.3.x.
	servers := make([]*Host, cfg.Servers)
	for i := range servers {
		servers[i] = n.Host(fmt.Sprintf("srv%d", i), fmt.Sprintf("10.0.1.%d", i+1), cfg.Arch)
	}
	clients := make([]*Host, cfg.Clients)
	for j := range clients {
		clients[j] = n.Host(fmt.Sprintf("cli%d", j), fmt.Sprintf("10.0.%d.%d", 2+j/200, j%200+1), cfg.Arch)
	}
	w := &echoChurn{
		servers: [][]*Host{servers},
		clients: [][]*Host{clients},
		// Every client walks the server list round-robin from its own
		// offset.
		target:      func(_, j, k int) (int, int) { return 0, (j + k) % cfg.Servers },
		conns:       cfg.ConnsPerClient,
		orphanEvery: cfg.OrphanEvery,
		msgBytes:    cfg.MsgBytes,
	}
	return w.run(&harness{n: n, drain: cfg.Drain}, cfg.Arch)
}

// echoChurn is the connection-churn workload RunChurn and RunCity
// share: echo servers accept a known number of connections; clients
// connect, send one message, read its echo, and close, while every Nth
// client dies with its last connection open. Hosts come in groups (one
// for the flat segment, one per district); target aims connection k of
// client j in group d at a (group, server) and is a pure function, so
// every server's accept count is known up front.
type echoChurn struct {
	servers, clients [][]*Host // [group][i]
	target           func(d, j, k int) (td, ts int)
	conns            int // sequential connections per client
	orphanEvery      int // every Nth client (counted across groups) is orphaned
	msgBytes         int
	msg              []byte // the payload every client sends
}

// run spawns the workload on h's network, installs the churn laws,
// runs it plus the drain (0 = 75 s), and returns the judged report.
func (w *echoChurn) run(h *harness, arch Arch) (*ChurnReport, error) {
	if w.msgBytes <= 0 {
		w.msgBytes = 512
	}
	w.msg = make([]byte, w.msgBytes)
	for b := range w.msg {
		w.msg[b] = byte(b)
	}
	if h.drain <= 0 {
		// 2MSL TIME_WAIT (60 s) and the orphan port quarantine (60 s)
		// both expire within this window.
		h.drain = 75 * time.Second
	}
	rep := &ChurnReport{}
	expect := make([][]int, len(w.servers))
	for d := range expect {
		expect[d] = make([]int, len(w.servers[d]))
		rep.Hosts += len(w.servers[d]) + len(w.clients[d])
	}
	for d := range w.clients {
		for j := range w.clients[d] {
			for k := 0; k < w.conns; k++ {
				td, ts := w.target(d, j, k)
				expect[td][ts]++
			}
		}
		rep.ConnsPlan += len(w.clients[d]) * w.conns
	}

	h.suite.Add(churnLaws(arch, rep.ConnsPlan)...)

	for d := range w.servers {
		for i, host := range w.servers[d] {
			w.serve(h, d, host, expect[d][i])
		}
	}
	global := 0
	for d := range w.clients {
		for j, host := range w.clients[d] {
			global++
			w.client(h, d, j, host, w.orphanEvery > 0 && global%w.orphanEvery == 0)
		}
	}

	if err := h.run(); err != nil {
		return nil, err
	}
	ctx, v := h.judge()
	rep.Verdict, rep.Snapshot = v, &ctx.Snap
	return rep, nil
}

// churnLaws are the churn workload's laws: where hosts run an OS
// server, every planned connection was set up — on both the client's
// and the server's OS server, so twice the plan — and the lifecycle laws
// hold; on every architecture no TIME_WAIT socket outlives the drain.
func churnLaws(arch Arch, plan int) []slo.Check {
	var laws []slo.Check
	if arch.hasOSServer() {
		laws = append([]slo.Check{slo.SumAtLeast("conn-setups", ".core.conn_setup", int64(2*plan))}, osServerLaws()...)
	}
	return append(laws, slo.SumZero("no-time-wait-leak", ".tcp_state.time_wait"))
}

// serve runs an echo server on host that accepts exactly count
// connections. Errors are keyed by group: one group lives on one shard,
// so the reported error is deterministic.
func (w *echoChurn) serve(h *harness, d int, host *Host, count int) {
	app := host.NewApp("echo")
	host.Spawn(host.Name(), func(t *Thread) {
		ls, err := app.Socket(t, SockStream)
		if err != nil {
			h.fail(d, err)
			return
		}
		if err := app.Bind(t, ls, SockAddr{Port: churnPort}); err != nil {
			h.fail(d, err)
			return
		}
		app.Listen(t, ls, 64)
		buf := make([]byte, w.msgBytes)
		for served := 0; served < count; served++ {
			fd, _, err := app.Accept(t, ls)
			if err != nil {
				h.fail(d, err)
				return
			}
			got := 0
			for got < w.msgBytes {
				n, err := app.Recv(t, fd, buf[got:], 0)
				if err != nil || n == 0 {
					break // client died mid-stream; still count it served
				}
				got += n
			}
			if got == w.msgBytes {
				if _, err := app.Send(t, fd, buf, 0); err != nil {
					h.fail(d, err)
				}
			}
			app.Close(t, fd)
		}
		app.Close(t, ls)
	})
}

// client runs client j of group d: sequential connections along the
// target plan, dying with the last one open when orphan is set.
func (w *echoChurn) client(h *harness, d, j int, host *Host, orphan bool) {
	app := host.NewApp("churn")
	host.Spawn(host.Name(), func(t *Thread) {
		// Stagger starts within the group so the SYN burst stays inside
		// listen backlogs.
		t.Sleep(time.Duration(j) * 3 * time.Millisecond)
		for k := 0; k < w.conns; k++ {
			td, ts := w.target(d, j, k)
			srv := w.servers[td][ts]
			fd, err := app.Socket(t, SockStream)
			if err != nil {
				h.fail(d, err)
				return
			}
			if err := app.Connect(t, fd, srv.Addr(churnPort)); err != nil {
				h.fail(d, fmt.Errorf("%s conn %d: %w", host.Name(), k, err))
				return
			}
			if _, err := app.Send(t, fd, w.msg, 0); err != nil {
				h.fail(d, err)
				return
			}
			buf := make([]byte, w.msgBytes)
			got := 0
			for got < w.msgBytes {
				n, err := app.Recv(t, fd, buf[got:], 0)
				if err != nil {
					h.fail(d, err)
					return
				}
				if n == 0 {
					h.fail(d, fmt.Errorf("%s conn %d: premature EOF", host.Name(), k))
					return
				}
				got += n
			}
			if orphan && k == w.conns-1 {
				// Die with the connection open: the host's OS server
				// must abort the orphan and quarantine the port.
				app.ExitProcess(t)
				return
			}
			app.Close(t, fd)
		}
	})
}
