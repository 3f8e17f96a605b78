package dataplane

import (
	"encoding/binary"

	"repro/internal/wire"
)

// ipAt is the IPv4 header's offset. The plane rewrites only frames
// wire.ParseMeta accepts, whose IPv4 header is exactly 20 bytes, so the
// transport header sits at wire.TransportAt.
const ipAt = wire.EthHeaderLen

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
	frame := make([]byte, wire.TransportAt+wire.TCPHeaderLen)
	eh := wire.EthHeader{Dst: dstMAC, Src: p.cfg.LocalMAC, Type: wire.EtherTypeIPv4}
	eh.Marshal(frame)

	th := wire.TCPHeader{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Flags: flags}
	tb := frame[wire.TransportAt:]
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
	ih.Marshal(frame[ipAt:wire.TransportAt])
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
