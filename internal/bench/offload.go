package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/socketapi"
	"repro/psd"
)

// Offload suite: the four-column comparison the NIC offload engine is
// judged by. Three workloads:
//
//	tcp-steady: a paced one-way TCP stream at fixed offered load, where
//	            the receive-side numbers live — wakeups per wire
//	            segment, LRO coalescing, and software-checksummed bytes.
//	proxy:      the splice forwarding pump (throughput and copy
//	            accounting on the proxy host).
//	churn:      many short-lived connections — the workload where
//	            interrupt moderation must not add connection latency.
//
// Each tcp-steady cell runs at several offered-load points because the
// coalescing win is load-dependent: a saturated wire arrives back-to-
// back and merges deeply, a trickle is delivered immediately by the
// moderation logic.

// OffloadLoadPointsMbps are the tcp-steady offered-load points, in
// Mb/s, on the simulated 10 Mb/s wire.
var OffloadLoadPointsMbps = []float64{2, 5, 9}

// offloadSteadyBytes sizes each tcp-steady transfer; small enough that
// the twelve cells stay quick, large enough that steady state dominates
// connection setup.
const offloadSteadyBytes = 384 << 10

// OffloadCell is one (configuration, workload) measurement row of
// BENCH_offload.json.
type OffloadCell struct {
	Config      string  `json:"config"`
	Workload    string  `json:"workload"`
	OfferedMbps float64 `json:"offered_mbps,omitempty"`
	KBps        float64 `json:"kbps,omitempty"`

	// Receive-side segment accounting on the sink host: frames that
	// crossed the wire, frames delivered up the kernel path (fewer when
	// LRO merged), and receiver sleep-to-wake transitions.
	WireFrames        int64   `json:"wire_frames,omitempty"`
	Deliveries        int64   `json:"deliveries,omitempty"`
	Wakeups           int64   `json:"wakeups,omitempty"`
	WakeupsPerSegment float64 `json:"wakeups_per_segment,omitempty"`
	SegmentsPerWakeup float64 `json:"segments_per_wakeup,omitempty"`
	CoalesceRatio     float64 `json:"coalesce_ratio,omitempty"`

	// Checksum accounting across every stack in the world: bytes the
	// stacks checksummed in software versus bytes the engine verified or
	// generated on the NIC.
	SwChecksumBytes  int64 `json:"sw_checksum_bytes"`
	OffloadCsumBytes int64 `json:"offload_csum_bytes,omitempty"`

	// Engine activity.
	TSOSuper  int64 `json:"tso_super,omitempty"`
	LROMerged int64 `json:"lro_merged,omitempty"`

	// Proxy cells only.
	CopiesPerByte float64 `json:"copies_per_byte,omitempty"`

	// Churn cells only.
	Conns int64 `json:"conns,omitempty"`
}

// OffloadReport is the JSON document psdbench -offload writes
// (BENCH_offload.json holds one entry per recorded run).
type OffloadReport struct {
	Label   string        `json:"label"`
	Date    string        `json:"date,omitempty"`
	Results []OffloadCell `json:"results"`
}

// WriteOffloadJSON writes a report as indented JSON.
func WriteOffloadJSON(w io.Writer, rep OffloadReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// RunOffloadSuite measures every cell: tcp-steady on each Columns()
// configuration at each offered-load point, the splice proxy on each
// configuration, and connection churn on each architecture flavor.
// Deterministic: two calls return identical rows.
func RunOffloadSuite() ([]OffloadCell, error) {
	var out []OffloadCell
	for _, cfg := range Columns() {
		for _, mbps := range OffloadLoadPointsMbps {
			cell, err := RunOffloadSteady(cfg, mbps)
			if err != nil {
				return nil, fmt.Errorf("offload: %s tcp-steady %.0f Mb/s: %w", cfg.Name, mbps, err)
			}
			out = append(out, cell)
		}
	}
	for _, cfg := range Columns() {
		cell, err := runOffloadProxy(cfg)
		if err != nil {
			return nil, fmt.Errorf("offload: %s proxy: %w", cfg.Name, err)
		}
		out = append(out, cell)
	}
	for _, f := range psd.ArchFlavors() {
		cell, err := runOffloadChurn(f)
		if err != nil {
			return nil, fmt.Errorf("offload: %s churn: %w", f.Name, err)
		}
		out = append(out, cell)
	}
	return out, nil
}

// RunOffloadSteady measures one paced tcp-steady cell with registry
// capture, digesting the sink host's segment/wakeup accounting and the
// world-wide checksum split.
func RunOffloadSteady(cfg SysConfig, mbps float64) (OffloadCell, error) {
	cell := OffloadCell{Config: cfg.Name, Workload: "tcp-steady", OfferedMbps: mbps}
	wasOn := metricsCfg.enabled
	EnableMetrics()
	var w *World
	restore := captureBuild(&w)
	res := runPacedStream(cfg, mbps, offloadSteadyBytes)
	restore()
	metricsCfg.enabled = wasOn
	if res.Err != nil {
		return cell, res.Err
	}
	cell.KBps = res.KBps()
	digestOffload(&cell, w)
	return cell, nil
}

// digestOffload reads the segment, wakeup, and checksum accounting out
// of a finished world's registry. Host B is the receive side in the
// paced stream.
func digestOffload(cell *OffloadCell, w *World) {
	if w == nil || w.Reg == nil {
		return
	}
	snap := w.Reg.Snapshot(w.Sim.Now().Duration())
	get := func(name string) int64 {
		it, _ := snap.Get(name)
		return it.Value
	}
	cell.WireFrames = get("host.B.nic.rx_frames")
	cell.Deliveries = get("host.B.kern.rx_frames")
	cell.Wakeups = get("host.B.kern.wakeups")
	if cell.WireFrames > 0 {
		cell.WakeupsPerSegment = float64(cell.Wakeups) / float64(cell.WireFrames)
	}
	if cell.Wakeups > 0 {
		cell.SegmentsPerWakeup = float64(cell.WireFrames) / float64(cell.Wakeups)
	}
	if cell.Deliveries > 0 {
		cell.CoalesceRatio = float64(cell.WireFrames) / float64(cell.Deliveries)
	}
	cell.SwChecksumBytes = snap.Sum(".sw_checksum_bytes")
	cell.OffloadCsumBytes = snap.Sum(".offload.tx_csum_bytes") + snap.Sum(".offload.rx_csum_bytes")
	cell.TSOSuper = snap.Sum(".offload.tso_super")
	cell.LROMerged = snap.Sum(".offload.lro_merged")
}

// runPacedStream is RunTTCP with a pacing loop on the source: one 8 KB
// chunk per interval, scheduled against absolute deadlines so send-side
// blocking cannot skew the offered rate.
func runPacedStream(cfg SysConfig, mbps float64, totalBytes int) TTCPResult {
	w := cfg.Build(42)
	res := TTCPResult{}
	var start, end sim.Time
	interval := time.Duration(float64(ttcpChunk*8) / mbps * 1e9 / 1e6)
	payload := make([]byte, ttcpChunk)
	for i := range payload {
		payload[i] = byte(i)
	}

	sink := w.NewB("steady-sink")
	source := w.NewA("steady-source")

	w.Sim.Spawn("sink", func(p *sim.Proc) {
		ls, err := sink.Socket(p, socketapi.SockStream)
		if err != nil {
			res.Err = err
			return
		}
		sink.SetSockOpt(p, ls, socketapi.SoRcvBuf, cfg.RcvBufKB*1024)
		if err := sink.Bind(p, ls, socketapi.SockAddr{Port: ttcpPort}); err != nil {
			res.Err = err
			return
		}
		sink.Listen(p, ls, 1)
		fd, _, err := sink.Accept(p, ls)
		if err != nil {
			res.Err = err
			return
		}
		got := 0
		buf := make([]byte, ttcpChunk)
		for {
			n, err := sink.Recv(p, fd, buf, 0)
			if err != nil {
				res.Err = err
				return
			}
			if n == 0 {
				break
			}
			got += n
		}
		end = p.Now()
		res.Bytes = got
		sink.Close(p, fd)
		sink.Close(p, ls)
	})

	w.Sim.Spawn("source", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, err := source.Socket(p, socketapi.SockStream)
		if err != nil {
			res.Err = err
			return
		}
		source.SetSockOpt(p, fd, socketapi.SoSndBuf, cfg.RcvBufKB*1024)
		if err := source.Connect(p, fd, socketapi.SockAddr{Addr: w.IPB, Port: ttcpPort}); err != nil {
			res.Err = err
			return
		}
		start = p.Now()
		for i, sent := 0, 0; sent < totalBytes; i++ {
			if target := start.Add(time.Duration(i) * interval); p.Now() < target {
				p.Sleep(target.Sub(p.Now()))
			}
			chunk := ttcpChunk
			if sent+chunk > totalBytes {
				chunk = totalBytes - sent
			}
			n, err := source.Send(p, fd, payload[:chunk], 0)
			if err != nil {
				res.Err = err
				return
			}
			sent += n
		}
		source.Close(p, fd)
	})

	if err := w.Sim.Run(); err != nil && res.Err == nil {
		res.Err = err
	}
	res.Duration = end.Sub(start)
	if res.Err == nil && res.Bytes != totalBytes {
		res.Err = fmt.Errorf("paced stream: received %d of %d bytes", res.Bytes, totalBytes)
	}
	return res
}

// runOffloadProxy measures the splice forwarding pump on one
// configuration — the workload where payload never crosses the socket
// API, so what remains is per-segment work the engine absorbs.
func runOffloadProxy(cfg SysConfig) (OffloadCell, error) {
	cell := OffloadCell{Config: cfg.Name, Workload: "proxy-splice"}
	r := RunProxy(cfg, "splice", 1<<20)
	if r.Err != nil {
		return cell, r.Err
	}
	cell.KBps = r.KBps()
	cell.CopiesPerByte = r.CopiesPerByte()
	return cell, nil
}

// runOffloadChurn runs a small connection-churn workload on one
// architecture flavor and digests the wakeup and checksum accounting
// across every host.
func runOffloadChurn(f psd.ArchFlavor) (OffloadCell, error) {
	cell := OffloadCell{Config: f.Name, Workload: "churn"}
	rep, err := psd.RunChurn(psd.ChurnConfig{
		Seed:           7,
		Servers:        4,
		Clients:        16,
		ConnsPerClient: 6,
		OrphanEvery:    8,
		MsgBytes:       512,
		Arch:           f.New(),
	})
	if err != nil {
		return cell, err
	}
	if !rep.Passed {
		return cell, fmt.Errorf("churn laws failed:\n%s", slo.Report(slo.Failures(rep.SLO)))
	}
	snap := rep.Snapshot
	cell.Conns = int64(rep.ConnsPlan)
	cell.WireFrames = snap.Sum(".nic.rx_frames")
	cell.Deliveries = snap.Sum(".kern.rx_frames")
	cell.Wakeups = snap.Sum(".kern.wakeups")
	if cell.WireFrames > 0 {
		cell.WakeupsPerSegment = float64(cell.Wakeups) / float64(cell.WireFrames)
	}
	cell.SwChecksumBytes = snap.Sum(".sw_checksum_bytes")
	cell.OffloadCsumBytes = snap.Sum(".offload.tx_csum_bytes") + snap.Sum(".offload.rx_csum_bytes")
	cell.TSOSuper = snap.Sum(".offload.tso_super")
	cell.LROMerged = snap.Sum(".offload.lro_merged")
	return cell, nil
}
