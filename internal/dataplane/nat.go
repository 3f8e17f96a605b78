package dataplane

import (
	"encoding/binary"

	"repro/internal/wire"
)

// Fixed offsets within the frames the plane rewrites (Ethernet II, IPv4
// with IHL=5 — parseFrame rejects anything else).
const (
	ipAt = wire.EthHeaderLen
	tpAt = wire.EthHeaderLen + wire.IPv4HeaderLen
)

// parsed is the plane's minimal view of a TCP/UDP frame.
type parsed struct {
	proto  uint8
	t      tuple
	flags  uint8 // TCP flags (0 for UDP)
	seq    uint32
	ack    uint32
	payLen int // transport payload length
	srcMAC wire.MAC
}

// parseFrame extracts the 5-tuple of an unfragmented IPv4 TCP/UDP frame.
// ok is false for everything else — those frames are not the plane's
// business and pass through untouched.
func parseFrame(frame []byte) (p parsed, ok bool) {
	if len(frame) < tpAt+wire.UDPHeaderLen {
		return p, false
	}
	if binary.BigEndian.Uint16(frame[12:14]) != wire.EtherTypeIPv4 {
		return p, false
	}
	ip := frame[ipAt:]
	if ip[0] != 0x45 {
		return p, false
	}
	if fo := binary.BigEndian.Uint16(ip[6:8]); fo&(wire.IPFlagMF|wire.IPOffMask) != 0 {
		return p, false // fragments take the slow path whole
	}
	p.proto = ip[9]
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if totalLen < wire.IPv4HeaderLen || totalLen > len(frame)-ipAt {
		return p, false
	}
	copy(p.t.Src[:], ip[12:16])
	copy(p.t.Dst[:], ip[16:20])
	// The transport header and payload end where the datagram does, not
	// where the frame does (Ethernet pads short frames).
	tp := ip[wire.IPv4HeaderLen:totalLen]
	switch p.proto {
	case wire.ProtoTCP:
		if len(tp) < wire.TCPHeaderLen {
			return p, false
		}
		p.t.SrcPort = binary.BigEndian.Uint16(tp[0:2])
		p.t.DstPort = binary.BigEndian.Uint16(tp[2:4])
		p.seq = binary.BigEndian.Uint32(tp[4:8])
		p.ack = binary.BigEndian.Uint32(tp[8:12])
		p.flags = tp[13]
		hl := int(tp[12]>>4) * 4
		if hl < wire.TCPHeaderLen || hl > len(tp) {
			return p, false
		}
		// Options are rare (SYNs carry MSS); the stack's parser vets
		// them, so a segment every stack would drop never enters the
		// tables.
		if hl > wire.TCPHeaderLen {
			if _, _, err := wire.UnmarshalTCP(tp[:hl]); err != nil {
				return p, false
			}
		}
		p.payLen = len(tp) - hl
	case wire.ProtoUDP:
		if len(tp) < wire.UDPHeaderLen {
			return p, false
		}
		p.t.SrcPort = binary.BigEndian.Uint16(tp[0:2])
		p.t.DstPort = binary.BigEndian.Uint16(tp[2:4])
		ulen := int(binary.BigEndian.Uint16(tp[4:6]))
		if ulen < wire.UDPHeaderLen || ulen > len(tp) {
			return p, false
		}
		p.payLen = ulen - wire.UDPHeaderLen
	default:
		return p, false
	}
	p.t.Proto = p.proto
	copy(p.srcMAC[:], frame[6:12])
	return p, true
}

// applyXlate rewrites frame in place per x: Ethernet addresses, IP
// addresses, transport ports, and a TTL decrement, with every checksum
// updated incrementally (RFC 1624) — the payload is never re-summed.
// Returns false when the TTL expired (caller drops).
func (p *Plane) applyXlate(frame []byte, x *xlate) bool {
	ip := frame[ipAt:]

	// TTL decrement, like any forwarding middlebox.
	if ip[8] <= 1 {
		return false
	}
	var oldTTL [2]byte
	oldTTL[0], oldTTL[1] = ip[8], ip[9]
	ip[8]--

	var oldAddrs [8]byte
	copy(oldAddrs[:], ip[12:20])
	copy(ip[12:16], x.srcIP[:])
	copy(ip[16:20], x.dstIP[:])

	ipck := binary.BigEndian.Uint16(ip[10:12])
	ipck = wire.ChecksumFixup(ipck, oldTTL[:], ip[8:10])
	ipck = wire.ChecksumFixup(ipck, oldAddrs[:], ip[12:20])
	binary.BigEndian.PutUint16(ip[10:12], ipck)

	tp := ip[wire.IPv4HeaderLen:]
	var oldPorts [4]byte
	copy(oldPorts[:], tp[0:4])
	binary.BigEndian.PutUint16(tp[0:2], x.srcPort)
	binary.BigEndian.PutUint16(tp[2:4], x.dstPort)

	var ckOff int
	switch ip[9] {
	case wire.ProtoTCP:
		ckOff = wire.TCPChecksumOffset
	case wire.ProtoUDP:
		ckOff = wire.UDPChecksumOffset
	}
	ck := binary.BigEndian.Uint16(tp[ckOff : ckOff+2])
	if !(ip[9] == wire.ProtoUDP && ck == 0) { // UDP zero means "no checksum"
		// The transport checksum covers the pseudo-header, so the address
		// rewrite feeds it too; TTL does not.
		ck = wire.ChecksumFixup(ck, oldAddrs[:], ip[12:20])
		ck = wire.ChecksumFixup(ck, oldPorts[:], tp[0:4])
		if ip[9] == wire.ProtoUDP && ck == 0 {
			ck = 0xffff // RFC 768: computed zero is transmitted as all-ones
		}
		binary.BigEndian.PutUint16(tp[ckOff:ckOff+2], ck)
	}

	copy(frame[0:6], x.dstMAC[:])
	copy(frame[6:12], p.cfg.LocalMAC[:])
	return true
}

// buildRST assembles a checksummed RST segment from scratch.
func (p *Plane) buildRST(dstMAC wire.MAC, src, dst wire.IPAddr, sport, dport uint16, seq, ack uint32, flags uint8) []byte {
	frame := make([]byte, tpAt+wire.TCPHeaderLen)
	eh := wire.EthHeader{Dst: dstMAC, Src: p.cfg.LocalMAC, Type: wire.EtherTypeIPv4}
	eh.Marshal(frame)

	th := wire.TCPHeader{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Flags: flags}
	tb := frame[tpAt:]
	th.Marshal(tb)
	ck := wire.TCPChecksum(src, dst, tb)
	binary.BigEndian.PutUint16(tb[wire.TCPChecksumOffset:], ck)

	ih := wire.IPv4Header{
		TotalLen: uint16(wire.IPv4HeaderLen + wire.TCPHeaderLen),
		TTL:      wire.DefaultTTL,
		Proto:    wire.ProtoTCP,
		Src:      src,
		Dst:      dst,
	}
	ih.Marshal(frame[ipAt:tpAt])
	return frame
}

// synthRST builds a well-formed RST segment toward a flow's initiator —
// the load balancer's way of terminating an established connection whose
// backend died. The sequence number is the initiator's rcv_nxt (its
// latest cumulative ACK), so its TCP accepts the reset immediately.
func (p *Plane) synthRST(f *flow) []byte {
	return p.buildRST(f.clientMAC,
		f.orig.Dst, f.orig.Src, // from the VIP identity, to the client
		f.orig.DstPort, f.orig.SrcPort,
		f.clientAck, f.clientEndSeq, wire.TCPRst|wire.TCPAck)
}

// synthRSTBackend is the mirror reset toward the flow's backend, sent
// from the SNAT identity the backend has been talking to. NAT preserves
// the client's sequence space, so the backend's rcv_nxt is the highest
// client seq forwarded (clientEndSeq).
func (p *Plane) synthRSTBackend(f *flow) []byte {
	return p.buildRST(f.fwd.dstMAC,
		f.fwd.srcIP, f.fwd.dstIP,
		f.fwd.srcPort, f.fwd.dstPort,
		f.clientEndSeq, 0, wire.TCPRst)
}
