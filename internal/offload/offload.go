// Package offload simulates a NIC offload engine: the fourth receive
// architecture of the reproduction (Library-SHM-IPF-OFFLOAD).
//
// The paper's arc — IPC, then SHM, then SHM-IPF — wins at each step by
// removing one copy or one wakeup per packet from the software path.
// This engine takes the next step the follow-on literature argues for
// ("the NIC should be part of the OS"): it moves per-packet work onto
// the device itself, so the software cost that remains is charged per
// super-segment instead of per wire frame.
//
// Four offloads, all deterministic on the virtual clock:
//
//   - TSO/GSO transmit segmentation: the stack hands one oversized
//     frame per send (header template + payload) and the engine slices
//     it into MSS-sized wire frames, patching sequence numbers, IP IDs,
//     lengths, and flags, and computing each slice's checksum.
//   - LRO receive coalescing: in-order TCP data segments of one flow
//     are merged into a single super-segment before the packet filter,
//     ring, and wakeup path run, so their fixed per-packet costs —
//     including the receiver wakeup — are paid once per merge. A merge
//     flushes when it reaches MaxCoalesce, when the flow goes quiet for
//     the hold window, or at a stream boundary (FIN, RST, SYN, URG,
//     options, a sequence gap).
//   - Checksum offload: every TCP/UDP frame is checksummed on transmit
//     and verified on receive by the engine; the stack skips its
//     software pass. Frames that fail verification are dropped here,
//     preserving end-to-end protection against injected corruption.
//   - Adaptive interrupt moderation (NAPI-like): the engine tracks the
//     inter-arrival EWMA. When idle, a PSH segment flushes its merge
//     immediately, so request/response latency never pays a hold
//     window. Under load, PSH segments merge like any other data and
//     delivery batches up to MaxCoalesce — the moderation trade every
//     NIC makes, bounded here by the hold window after the last
//     arrival.
//
// Engine work is charged as virtual time on the engine's own transmit
// and receive pipelines — not on the host CPU, which is the point of
// offloading — and metered into the metrics registry so it stays
// visible next to the software components.
package offload

import (
	"time"

	"repro/internal/costs"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Defaults. The wire runs at 0.8 µs/byte, so full-size frames arrive
// ~1.2 ms apart; the hold window must span a few arrivals to coalesce
// anything, and the idle threshold must sit above the steady-state gap
// so ping-pong traffic never waits.
const (
	DefaultMSS = 1460
	// DefaultMaxCoalesce caps merged payload per super-segment. 32 MSS
	// stays well under the IPv4 TotalLen limit and, at wire rate, bounds
	// the accumulation a delivery can be deferred by.
	DefaultMaxCoalesce = 32 * DefaultMSS
	// DefaultHold is the quiet period after the last arrival that
	// flushes an open merge (the moderation timer).
	DefaultHold    = 2500 * time.Microsecond
	DefaultIdleGap = 3 * time.Millisecond // EWMA gap above which the engine is idle

	// DefaultTSOMax is the transmit super-segment payload cap that
	// deployments configure their stacks with when the engine is
	// attached (stack.Config.TSOMaxPayload).
	DefaultTSOMax = 8 * DefaultMSS
)

// TSOFor returns the stack TSOMaxPayload for a host profile: the
// default super-segment cap when the engine is enabled, 0 (TSO off)
// otherwise.
func TSOFor(p costs.Profile) int {
	if p.Offload.Enabled {
		return DefaultTSOMax
	}
	return 0
}

// Config assembles an engine between a host's receive path and its NIC.
type Config struct {
	Sim  *sim.Sim
	Name string

	// NIC is the transmit target; the engine's sliced frames go out
	// through it.
	NIC *simnet.NIC
	// Up is the host receive path the engine delivers into (the function
	// that was the NIC's Rx callback before the engine was attached).
	Up func(f simnet.Frame)

	// SW, when set, charges software-fallback work on the host CPU (at
	// interrupt priority, like the rest of the receive path) and calls
	// then when the charge completes. A full engine FIFO pushes frames
	// onto this path instead of dropping them. Nil runs fallbacks
	// uncharged (unit tests).
	SW func(d time.Duration, then func())

	Costs costs.OffloadCosts

	MSS         int           // TSO slice payload size (default 1460)
	MaxCoalesce int           // max merged payload bytes (default 8*MSS)
	Hold        time.Duration // LRO/moderation hold window (default 2.5 ms)
	IdleGap     time.Duration // inter-arrival EWMA above which the engine is idle
}

// Stats counts engine activity; the counters are always live and bind
// into the metrics registry via BindMetrics.
type Stats struct {
	TSOSuper  metrics.Counter // super-segments handed down by the stack
	TSOSlices metrics.Counter // wire frames sliced out of them
	TxPass    metrics.Counter // frames transmitted unsliced

	TxCsumFrames metrics.Counter // frames checksummed on transmit
	TxCsumBytes  metrics.Counter // transport bytes checksummed on transmit
	RxCsumFrames metrics.Counter // frames verified on receive
	RxCsumBytes  metrics.Counter // transport bytes verified on receive
	RxCsumBad    metrics.Counter // frames dropped for a bad checksum

	LROMerged   metrics.Counter // wire frames absorbed into a pending merge
	LROFlushes  metrics.Counter // merged super-segments delivered up
	LROBytes    metrics.Counter // payload bytes delivered in merged segments
	RxImmediate metrics.Counter // frames delivered without holding

	TxEngineNS metrics.Counter // virtual ns charged on the transmit pipeline
	RxEngineNS metrics.Counter // virtual ns charged on the receive pipeline

	// Finite-FIFO accounting: overflows never drop, they degrade to the
	// software path, whose work is counted here.
	TxOverflow   metrics.Counter // frames refused by a full transmit FIFO
	RxOverflow   metrics.Counter // frames refused by a full receive FIFO
	SwCsumFrames metrics.Counter // frames checksummed/verified on the host instead
	SwCsumBytes  metrics.Counter // transport bytes the host checksummed in fallback
	SwSlices     metrics.Counter // wire frames sliced by software GSO in fallback
}

// Engine is one NIC's offload pipeline.
type Engine struct {
	cfg Config

	// Pipeline clocks: engine work serializes FIFO on each direction,
	// so deliveries can never overtake each other no matter how the
	// per-frame charges vary.
	txFree sim.Time
	rxFree sim.Time

	// FIFO occupancy: frames queued awaiting pipeline completion on
	// each direction (receive also counts open LRO merges). Compared
	// against Costs.TxFIFOFrames/RxFIFOFrames to decide when a frame
	// falls back to the software path.
	txQueued int

	// Receive completions awaiting delivery up, oldest at upHead. The
	// receive pipeline is FIFO, so their delivery events fire in queue
	// order and each one hands up the head; upFn is deliverHead bound
	// once, so scheduling a delivery allocates no closure. The backing
	// array is reused once the queue drains.
	upQ    []simnet.Frame
	upHead int
	upFn   func()

	// Adaptive moderation state.
	ewmaGap time.Duration
	lastArr sim.Time
	sawArr  bool

	// Pending LRO merges, keyed by flow; entries exist only while a
	// merge is open (bounded by concurrently-held flows, and never
	// iterated, so the map cannot perturb determinism).
	pending map[flowKey]*mergeBuf
	spare   []*mergeBuf // flushed merge records, reused by the next open

	Stats Stats
}

// flowKey identifies one TCP flow direction.
type flowKey struct {
	src, dst     wire.IPAddr
	sport, dport uint16
}

// mergeBuf is one in-progress LRO super-segment.
type mergeBuf struct {
	key       flowKey
	buf       []byte   // frame under construction: headers of the first frame + concatenated payloads
	hlen      int      // TCP header length within the frame
	count     int      // wire frames merged
	nextSeq   uint32   // expected sequence of the next mergeable frame
	lastAck   uint32   // latest cumulative ACK seen (patched in at flush)
	lastWin   uint16   // latest advertised window
	psh       bool     // a merged frame carried PSH (set on the super-segment)
	lastTouch sim.Time // arrival time of the newest merged frame (hold timer base)
	gen       int      // guards the hold timer against early flushes
}

// New attaches an engine. The caller re-points the NIC's Rx at
// Engine.Rx and its transmit path at Engine.Transmit.
func New(cfg Config) *Engine {
	if cfg.MSS <= 0 {
		cfg.MSS = DefaultMSS
	}
	if cfg.MaxCoalesce <= 0 {
		cfg.MaxCoalesce = DefaultMaxCoalesce
	}
	if cfg.Hold <= 0 {
		cfg.Hold = DefaultHold
	}
	if cfg.IdleGap <= 0 {
		cfg.IdleGap = DefaultIdleGap
	}
	e := &Engine{cfg: cfg, pending: make(map[flowKey]*mergeBuf)}
	e.upFn = e.deliverHead
	return e
}

// BindMetrics registers the engine's counters under a scope (typically
// "host.<name>.nic.offload").
func (e *Engine) BindMetrics(sc *metrics.Scope) {
	if sc == nil {
		return
	}
	sc.Counter("tso_super", &e.Stats.TSOSuper)
	sc.Counter("tso_slices", &e.Stats.TSOSlices)
	sc.Counter("tx_pass", &e.Stats.TxPass)
	sc.Counter("tx_csum_frames", &e.Stats.TxCsumFrames)
	sc.Counter("tx_csum_bytes", &e.Stats.TxCsumBytes)
	sc.Counter("rx_csum_frames", &e.Stats.RxCsumFrames)
	sc.Counter("rx_csum_bytes", &e.Stats.RxCsumBytes)
	sc.Counter("rx_csum_bad", &e.Stats.RxCsumBad)
	sc.Counter("lro_merged", &e.Stats.LROMerged)
	sc.Counter("lro_flushes", &e.Stats.LROFlushes)
	sc.Counter("lro_bytes", &e.Stats.LROBytes)
	sc.Counter("rx_immediate", &e.Stats.RxImmediate)
	sc.Counter("tx_engine_ns", &e.Stats.TxEngineNS)
	sc.Counter("rx_engine_ns", &e.Stats.RxEngineNS)
	sc.Counter("tx_overflow", &e.Stats.TxOverflow)
	sc.Counter("rx_overflow", &e.Stats.RxOverflow)
	sc.Counter("sw_csum_frames", &e.Stats.SwCsumFrames)
	sc.Counter("sw_csum_bytes", &e.Stats.SwCsumBytes)
	sc.Counter("sw_slices", &e.Stats.SwSlices)
}

// txFull and rxFull report a full FIFO (0 = unlimited).
func (e *Engine) txFull() bool {
	max := e.cfg.Costs.TxFIFOFrames
	return max > 0 && e.txQueued >= max
}

func (e *Engine) rxFull() bool {
	max := e.cfg.Costs.RxFIFOFrames
	return max > 0 && len(e.upQ)-e.upHead+len(e.pending) >= max
}

// sw charges software-fallback work on the host CPU and continues.
func (e *Engine) sw(d time.Duration, then func()) {
	if e.cfg.SW == nil || d <= 0 {
		then()
		return
	}
	e.cfg.SW(d, then)
}

// chargeTx advances the transmit pipeline clock by d and returns the
// completion time.
func (e *Engine) chargeTx(d time.Duration) sim.Time {
	now := e.cfg.Sim.Now()
	if e.txFree < now {
		e.txFree = now
	}
	e.txFree = e.txFree.Add(d)
	e.Stats.TxEngineNS.Add(uint64(d))
	return e.txFree
}

// chargeRx advances the receive pipeline clock by d and returns the
// completion time.
func (e *Engine) chargeRx(d time.Duration) sim.Time {
	now := e.cfg.Sim.Now()
	if e.rxFree < now {
		e.rxFree = now
	}
	e.rxFree = e.rxFree.Add(d)
	e.Stats.RxEngineNS.Add(uint64(d))
	return e.rxFree
}

// at schedules fn at time t (immediately if t has passed).
func (e *Engine) at(t sim.Time, fn func()) {
	d := t.Sub(e.cfg.Sim.Now())
	if d < 0 {
		d = 0
	}
	e.cfg.Sim.After(d, fn)
}

// --- Transmit path -----------------------------------------------------

// parsedFrame is the engine's view of an IPv4 transport frame.
type parsedFrame struct {
	ip      wire.IPv4Header
	ipHdrAt int // offset of the IP header (== wire.EthHeaderLen)
	tpAt    int // offset of the transport header
	tcp     wire.TCPHeader
	tcpHLen int
	payAt   int // offset of the transport payload (TCP) / datagram body (UDP)
}

// parse extracts the headers the engine cares about. ok is false for
// anything that is not plain unfragmented IPv4 TCP/UDP — those frames
// pass through the engine untouched.
func parse(frame []byte) (p parsedFrame, ok bool) {
	eh, err := wire.UnmarshalEth(frame)
	if err != nil || eh.Type != wire.EtherTypeIPv4 {
		return p, false
	}
	ip, hlen, err := wire.UnmarshalIPv4(frame[wire.EthHeaderLen:])
	if err != nil || ip.IsFragment() {
		return p, false
	}
	if int(ip.TotalLen) > len(frame)-wire.EthHeaderLen {
		return p, false
	}
	p.ip = ip
	p.ipHdrAt = wire.EthHeaderLen
	p.tpAt = wire.EthHeaderLen + hlen
	switch ip.Proto {
	case wire.ProtoTCP:
		th, thl, err := wire.UnmarshalTCP(frame[p.tpAt : wire.EthHeaderLen+int(ip.TotalLen)])
		if err != nil {
			return p, false
		}
		p.tcp, p.tcpHLen = th, thl
		p.payAt = p.tpAt + thl
		return p, true
	case wire.ProtoUDP:
		p.payAt = p.tpAt + wire.UDPHeaderLen
		return p, true
	}
	return p, false
}

// Transmit is the engine's frame entry point on the send side. Frames
// at or under the MTU get their transport checksum computed here (the
// stack skipped its software pass); oversized TCP frames are TSO
// super-segments and are sliced into MSS-sized wire frames.
func (e *Engine) Transmit(frame []byte) error {
	p, ok := parse(frame)
	if !ok {
		e.Stats.TxPass.Inc()
		return e.cfg.NIC.Transmit(frame)
	}
	segLen := wire.EthHeaderLen + int(p.ip.TotalLen) - p.tpAt

	if len(frame) <= wire.EthHeaderLen+wire.EthMTU {
		// Plain frame. The stack skipped its software checksum pass, so
		// the checksum must be computed here either way; a full FIFO only
		// moves the charge onto the host CPU.
		e.patchTransportChecksum(frame, p)
		e.Stats.TxPass.Inc()
		if e.txFull() {
			e.Stats.TxOverflow.Inc()
			e.Stats.SwCsumFrames.Inc()
			e.Stats.SwCsumBytes.Add(uint64(segLen))
			e.sw(e.cfg.Costs.SwChecksum.At(segLen), func() { e.cfg.NIC.Transmit(frame) })
			return nil
		}
		e.Stats.TxCsumFrames.Inc()
		e.Stats.TxCsumBytes.Add(uint64(segLen))
		done := e.chargeTx(e.cfg.Costs.Checksum.At(segLen))
		e.transmitAt(done, frame)
		return nil
	}

	if p.ip.Proto != wire.ProtoTCP {
		// Only TCP is segmented; an oversized UDP frame would be a stack
		// bug (ipOutput still fragments UDP).
		return e.cfg.NIC.Transmit(frame)
	}

	// TSO: slice the super-segment into MSS-sized wire frames.
	e.Stats.TSOSuper.Inc()
	slices := e.sliceSuper(frame, p)

	if e.txFull() {
		// FIFO full: software GSO. The host does the slicing and the
		// per-slice checksums, then the frames go straight to the wire in
		// order, skipping the engine pipeline.
		e.Stats.TxOverflow.Inc()
		var d time.Duration
		for _, s := range slices {
			segBytes := len(s) - p.tpAt
			e.Stats.SwSlices.Inc()
			e.Stats.SwCsumFrames.Inc()
			e.Stats.SwCsumBytes.Add(uint64(segBytes))
			d += e.cfg.Costs.SwChecksum.At(segBytes)
		}
		e.sw(d, func() {
			for _, s := range slices {
				e.cfg.NIC.Transmit(s)
			}
		})
		return nil
	}

	payLen := wire.EthHeaderLen + int(p.ip.TotalLen) - p.payAt
	d := e.cfg.Costs.TxSetup.At(payLen)
	for _, s := range slices {
		take := len(s) - p.payAt
		e.Stats.TSOSlices.Inc()
		e.Stats.TxCsumFrames.Inc()
		e.Stats.TxCsumBytes.Add(uint64(p.tcpHLen + take))
		d += e.cfg.Costs.TxSegment.At(take) + e.cfg.Costs.Checksum.At(p.tcpHLen+take)
		done := e.chargeTx(d)
		d = 0
		e.transmitAt(done, s)
	}
	return nil
}

// transmitAt occupies a transmit FIFO slot until the pipeline completes
// at t, then sends the frame out.
func (e *Engine) transmitAt(t sim.Time, frame []byte) {
	e.txQueued++
	e.at(t, func() {
		e.txQueued--
		e.cfg.NIC.Transmit(frame)
	})
}

// sliceSuper slices a TSO super-segment into MSS-sized wire frames with
// patched IP/TCP headers and fresh checksums. The header template is the
// frame's own Ethernet+IP+TCP headers; FIN/PSH ride only on the last
// slice. Shared by the engine TSO path and the software GSO fallback —
// the bytes on the wire are identical either way, only who is charged
// for producing them differs.
func (e *Engine) sliceSuper(frame []byte, p parsedFrame) [][]byte {
	payload := frame[p.payAt : wire.EthHeaderLen+int(p.ip.TotalLen)]
	mss := e.cfg.MSS
	hdrLen := p.payAt // Ethernet + IP + TCP headers, options included
	var slices [][]byte
	for off, idx := 0, 0; off < len(payload); idx++ {
		take := mss
		last := false
		if off+take >= len(payload) {
			take = len(payload) - off
			last = true
		}
		slice := make([]byte, hdrLen+take)
		copy(slice, frame[:hdrLen])
		copy(slice[hdrLen:], payload[off:off+take])

		// IP header: new length, per-slice ID, fresh checksum.
		ih := p.ip
		ih.TotalLen = uint16(int(p.ip.TotalLen) - len(payload) + take)
		ih.ID = p.ip.ID + uint16(idx)
		ih.Marshal(slice[p.ipHdrAt : p.ipHdrAt+wire.IPv4HeaderLen])

		// TCP header: advance the sequence number.
		tb := slice[p.tpAt:]
		seq := p.tcp.Seq + uint32(off)
		tb[4] = byte(seq >> 24)
		tb[5] = byte(seq >> 16)
		tb[6] = byte(seq >> 8)
		tb[7] = byte(seq)
		if !last {
			tb[13] &^= wire.TCPFin | wire.TCPPsh
		}

		sp := parsedFrame{ip: ih, ipHdrAt: p.ipHdrAt, tpAt: p.tpAt, payAt: p.payAt}
		e.patchTransportChecksum(slice, sp)
		slices = append(slices, slice)
		off += take
	}
	return slices
}

// patchTransportChecksum zeroes and recomputes the TCP/UDP checksum of
// a frame in place.
func (e *Engine) patchTransportChecksum(frame []byte, p parsedFrame) {
	end := wire.EthHeaderLen + int(p.ip.TotalLen)
	seg := frame[p.tpAt:end]
	var ckAt int
	switch p.ip.Proto {
	case wire.ProtoTCP:
		ckAt = wire.TCPChecksumOffset
	case wire.ProtoUDP:
		ckAt = wire.UDPChecksumOffset
	default:
		return
	}
	seg[ckAt], seg[ckAt+1] = 0, 0
	var ck wire.Checksummer
	ck.PseudoHeader(p.ip.Src, p.ip.Dst, p.ip.Proto, uint16(len(seg)))
	ck.Add(seg)
	sum := ck.Sum()
	if p.ip.Proto == wire.ProtoUDP && sum == 0 {
		sum = 0xffff
	}
	seg[ckAt] = byte(sum >> 8)
	seg[ckAt+1] = byte(sum)
}

// --- Receive path ------------------------------------------------------

// Rx is the engine's NIC receive callback: checksum verification, LRO
// coalescing, and adaptive moderation, then delivery into the host
// receive path.
func (e *Engine) Rx(f simnet.Frame) {
	now := e.cfg.Sim.Now()
	busy := e.observeArrival(now)

	p, ok := parse(f.Data)
	if !ok {
		// Non-IP (ARP) and ICMP flow straight up; the stack validates
		// them itself.
		e.deliverNow(f)
		return
	}

	segLen := wire.EthHeaderLen + int(p.ip.TotalLen) - p.tpAt
	seg := f.Data[p.tpAt : wire.EthHeaderLen+int(p.ip.TotalLen)]

	if e.rxFull() {
		// FIFO full: degrade to the software path. The host verifies the
		// checksum — bad frames still die, so end-to-end protection never
		// lapses under load — and LRO is skipped for this frame; an open
		// merge for the flow flushes first so the stream stays in order.
		e.Stats.RxOverflow.Inc()
		if p.ip.Proto == wire.ProtoTCP {
			key := flowKey{src: p.ip.Src, dst: p.ip.Dst, sport: p.tcp.SrcPort, dport: p.tcp.DstPort}
			if pend := e.pending[key]; pend != nil {
				e.flush(pend, 0)
			}
		}
		okSum := true
		switch p.ip.Proto {
		case wire.ProtoTCP:
			okSum = wire.VerifyTCPChecksum(p.ip.Src, p.ip.Dst, seg)
		case wire.ProtoUDP:
			okSum = wire.VerifyUDPChecksum(p.ip.Src, p.ip.Dst, seg)
		}
		e.Stats.SwCsumFrames.Inc()
		e.Stats.SwCsumBytes.Add(uint64(segLen))
		e.sw(e.cfg.Costs.SwChecksum.At(segLen), func() {
			if !okSum {
				e.Stats.RxCsumBad.Inc()
				return
			}
			e.deliverAfter(0, f)
		})
		return
	}

	// Checksum verification on the NIC. Bad frames die here with a
	// counter, exactly as a bad software checksum would have dropped
	// them in the stack.
	e.Stats.RxCsumFrames.Inc()
	e.Stats.RxCsumBytes.Add(uint64(segLen))
	d := e.cfg.Costs.Checksum.At(segLen)
	okSum := true
	switch p.ip.Proto {
	case wire.ProtoTCP:
		okSum = wire.VerifyTCPChecksum(p.ip.Src, p.ip.Dst, seg)
	case wire.ProtoUDP:
		okSum = wire.VerifyUDPChecksum(p.ip.Src, p.ip.Dst, seg)
	}
	if !okSum {
		e.Stats.RxCsumBad.Inc()
		e.chargeRx(d)
		return
	}

	if p.ip.Proto != wire.ProtoTCP {
		e.deliverAfter(d, f)
		return
	}

	key := flowKey{src: p.ip.Src, dst: p.ip.Dst, sport: p.tcp.SrcPort, dport: p.tcp.DstPort}
	payLen := wire.EthHeaderLen + int(p.ip.TotalLen) - p.payAt
	mergeable := payLen > 0 &&
		(p.tcp.Flags == wire.TCPAck || p.tcp.Flags == wire.TCPAck|wire.TCPPsh) &&
		p.tcpHLen == wire.TCPHeaderLen // no SYN/FIN/RST/URG, no options

	pend := e.pending[key]

	if !mergeable {
		// Pure ACKs and boundary segments (FIN, SYN, RST, URG, options):
		// flush anything pending for this flow first so the stream stays
		// in order, then deliver.
		if pend != nil {
			e.flush(pend, e.cfg.Costs.RxFlush.At(0))
		}
		e.deliverAfter(d+e.cfg.Costs.RxMerge.At(payLen), f)
		return
	}

	d += e.cfg.Costs.RxMerge.At(payLen)
	psh := p.tcp.Flags&wire.TCPPsh != 0

	if pend != nil {
		if p.tcp.Seq != pend.nextSeq {
			// Sequence gap (loss or reordering upstream): flush what we
			// have and deliver the new frame at once, so the stack sees
			// the gap promptly and dup-ACKs.
			e.flush(pend, 0)
			e.deliverAfter(d, f)
			return
		}
		// In-order continuation: absorb. A merge opens sized to its
		// first frame; the first continuation that does not fit grows
		// it once to the most a merge can hold before it flushes.
		pay := f.Data[p.payAt : wire.EthHeaderLen+int(p.ip.TotalLen)]
		if cap(pend.buf)-len(pend.buf) < len(pay) {
			grown := make([]byte, len(pend.buf), max(p.payAt+e.cfg.MaxCoalesce+e.cfg.MSS, len(pend.buf)+len(pay)))
			copy(grown, pend.buf)
			pend.buf = grown
		}
		pend.buf = append(pend.buf, pay...)
		pend.count++
		pend.nextSeq += uint32(payLen)
		pend.lastAck = p.tcp.Ack
		pend.lastWin = p.tcp.Window
		pend.psh = pend.psh || psh
		pend.lastTouch = now
		e.Stats.LROMerged.Inc()
		e.chargeRx(d)
		if len(pend.buf)-pend.hlen-pend.key.hdrLen() >= e.cfg.MaxCoalesce || (psh && !busy) {
			// Full, or a push while idle: the sender is waiting on this
			// data, hand it up now. Under load the push merges like any
			// other byte — that deferral is the interrupt moderation.
			e.flush(pend, e.cfg.Costs.RxFlush.At(0))
		}
		return
	}

	// Open a merge with this frame as the template. The buffer is a
	// private copy: delivered frames are immutable, and the merged
	// super-segment is a new frame that never existed on the wire. A
	// reused record keeps its generation, so hold timers armed for its
	// earlier merge still see themselves as stale.
	if n := len(e.spare); n > 0 {
		pend = e.spare[n-1]
		e.spare[n-1] = nil
		e.spare = e.spare[:n-1]
	} else {
		pend = new(mergeBuf)
	}
	*pend = mergeBuf{
		key:       key,
		buf:       append([]byte(nil), f.Data[:wire.EthHeaderLen+int(p.ip.TotalLen)]...),
		hlen:      p.tcpHLen,
		count:     1,
		nextSeq:   p.tcp.Seq + uint32(payLen),
		lastAck:   p.tcp.Ack,
		lastWin:   p.tcp.Window,
		psh:       psh,
		lastTouch: now,
		gen:       pend.gen,
	}
	e.pending[key] = pend
	e.Stats.LROMerged.Inc()
	e.chargeRx(d)

	if psh && !busy {
		// A single pushed segment on an idle flow is a request or a
		// response tail: no reason to hold it.
		e.flush(pend, e.cfg.Costs.RxFlush.At(0))
		return
	}
	e.armHold(pend, e.cfg.Hold)
}

// armHold schedules the moderation timer: the merge flushes once the
// flow has been quiet for the hold window. Arrivals refresh lastTouch,
// so the timer re-arms itself until the quiet period is real; the
// generation guard kills timers that outlive their merge.
func (e *Engine) armHold(pend *mergeBuf, wait time.Duration) {
	gen := pend.gen
	key := pend.key
	e.cfg.Sim.After(wait, func() {
		if cur := e.pending[key]; cur != pend || pend.gen != gen {
			return
		}
		if quiet := e.cfg.Sim.Now().Sub(pend.lastTouch); quiet < e.cfg.Hold {
			e.armHold(pend, e.cfg.Hold-quiet)
			return
		}
		e.flush(pend, e.cfg.Costs.RxFlush.At(0))
	})
}

// hdrLen returns the Ethernet+IP header length preceding the transport
// header (constant for the frames the engine merges).
func (flowKey) hdrLen() int { return wire.EthHeaderLen + wire.IPv4HeaderLen }

// flush finalizes a pending merge — patches lengths, ACK, window, and
// checksums so the super-segment is a well-formed frame — and delivers
// it. extra is added to the pipeline charge.
func (e *Engine) flush(pend *mergeBuf, extra time.Duration) {
	delete(e.pending, pend.key)
	pend.gen++

	frame := pend.buf
	ipAt := wire.EthHeaderLen
	tpAt := pend.key.hdrLen()
	totalLen := len(frame) - wire.EthHeaderLen

	// IP header: merged length, fresh checksum.
	ih, _, err := wire.UnmarshalIPv4(frame[ipAt:])
	if err == nil {
		ih.TotalLen = uint16(totalLen)
		ih.Marshal(frame[ipAt : ipAt+wire.IPv4HeaderLen])
	}

	// TCP header: latest cumulative ACK and window, PSH if any merged
	// frame pushed, fresh checksum.
	tb := frame[tpAt:]
	if pend.psh {
		tb[13] |= wire.TCPPsh
	}
	tb[8] = byte(pend.lastAck >> 24)
	tb[9] = byte(pend.lastAck >> 16)
	tb[10] = byte(pend.lastAck >> 8)
	tb[11] = byte(pend.lastAck)
	tb[14] = byte(pend.lastWin >> 8)
	tb[15] = byte(pend.lastWin)
	tb[wire.TCPChecksumOffset], tb[wire.TCPChecksumOffset+1] = 0, 0
	var ck wire.Checksummer
	ck.PseudoHeader(ih.Src, ih.Dst, wire.ProtoTCP, uint16(len(tb)))
	ck.Add(tb)
	sum := ck.Sum()
	tb[wire.TCPChecksumOffset] = byte(sum >> 8)
	tb[wire.TCPChecksumOffset+1] = byte(sum)

	e.Stats.LROFlushes.Inc()
	e.Stats.LROBytes.Add(uint64(len(tb) - pend.hlen))
	pend.buf = nil
	e.spare = append(e.spare, pend)
	e.deliverAfter(extra, simnet.Frame{Data: frame})
}

// deliverNow hands a frame up with no engine charge.
func (e *Engine) deliverNow(f simnet.Frame) {
	e.Stats.RxImmediate.Inc()
	e.deliverAfter(0, f)
}

// deliverAfter hands a frame up after charging d on the receive
// pipeline (FIFO: a cheap frame never overtakes an expensive one). The
// frame holds a receive FIFO slot until the delivery fires.
func (e *Engine) deliverAfter(d time.Duration, f simnet.Frame) {
	done := e.chargeRx(d)
	e.upQ = append(e.upQ, f)
	e.at(done, e.upFn)
}

// deliverHead hands up the oldest queued receive completion.
func (e *Engine) deliverHead() {
	f := e.upQ[e.upHead]
	e.upQ[e.upHead] = simnet.Frame{}
	e.upHead++
	if e.upHead == len(e.upQ) {
		e.upQ, e.upHead = e.upQ[:0], 0
	}
	e.cfg.Up(f)
}

// observeArrival updates the inter-arrival EWMA and reports whether the
// engine considers itself under load (poll mode).
func (e *Engine) observeArrival(now sim.Time) bool {
	if !e.sawArr {
		e.sawArr = true
		e.lastArr = now
		e.ewmaGap = e.cfg.IdleGap // start idle: first packets go straight up
		return false
	}
	gap := now.Sub(e.lastArr)
	e.lastArr = now
	if gap > 4*e.cfg.IdleGap {
		gap = 4 * e.cfg.IdleGap // clamp so one long silence doesn't poison the average
	}
	// EWMA with alpha = 1/4.
	e.ewmaGap = (3*e.ewmaGap + gap) / 4
	return e.ewmaGap < e.cfg.IdleGap
}

// PendingMerges reports the number of open LRO merges (diagnostics).
func (e *Engine) PendingMerges() int { return len(e.pending) }
