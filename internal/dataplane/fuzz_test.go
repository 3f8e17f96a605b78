package dataplane

import (
	"encoding/binary"
	"testing"

	"repro/internal/wire"
)

// FuzzParseFrame holds the plane's own frame parser to the wire
// package's: whenever parseFrame accepts a frame, wire.UnmarshalEth,
// UnmarshalIPv4 and UnmarshalTCP/UDP accept it too, and both agree on
// the 5-tuple, TCP flags, seq/ack and payload length. The plane does not
// verify checksums (the stack does), so the target repairs the IPv4
// header checksum before handing the frame to the wire parser; every
// other field is compared as received. The seed corpus lives in
// testdata/fuzz/FuzzParseFrame.
func FuzzParseFrame(f *testing.F) {
	f.Add(tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPSyn|wire.TCPAck, 7, 9, []byte("hello")))
	f.Add(udpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, []byte("ping"), true))
	f.Fuzz(func(t *testing.T, frame []byte) {
		p, ok := parseFrame(frame)
		if !ok {
			return
		}
		b := append([]byte(nil), frame...)
		ip := b[ipAt:]
		binary.BigEndian.PutUint16(ip[10:12], 0)
		binary.BigEndian.PutUint16(ip[10:12], wire.Checksum(ip[:wire.IPv4HeaderLen]))

		eh, err := wire.UnmarshalEth(b)
		if err != nil {
			t.Fatalf("parseFrame accepted, UnmarshalEth: %v", err)
		}
		if eh.Type != wire.EtherTypeIPv4 || eh.Src != p.srcMAC {
			t.Fatalf("eth: type %#x src %v, parseFrame src %v", eh.Type, eh.Src, p.srcMAC)
		}
		ih, ihl, err := wire.UnmarshalIPv4(ip)
		if err != nil {
			t.Fatalf("parseFrame accepted, UnmarshalIPv4: %v", err)
		}
		if ih.IsFragment() {
			t.Fatalf("parseFrame accepted a fragment (flags %#x off %d)", ih.Flags, ih.FragOff)
		}
		if ih.Src != p.t.Src || ih.Dst != p.t.Dst || ih.Proto != p.proto || p.t.Proto != p.proto {
			t.Fatalf("ip: %v->%v proto %d, parseFrame %v->%v proto %d/%d",
				ih.Src, ih.Dst, ih.Proto, p.t.Src, p.t.Dst, p.proto, p.t.Proto)
		}
		seg := ip[ihl:ih.TotalLen]
		var sport, dport uint16
		var flags uint8
		var seq, ack uint32
		var payLen int
		switch ih.Proto {
		case wire.ProtoTCP:
			th, hl, err := wire.UnmarshalTCP(seg)
			if err != nil {
				t.Fatalf("parseFrame accepted, UnmarshalTCP: %v", err)
			}
			sport, dport, flags, seq, ack, payLen = th.SrcPort, th.DstPort, th.Flags, th.Seq, th.Ack, len(seg)-hl
		case wire.ProtoUDP:
			uh, err := wire.UnmarshalUDP(seg)
			if err != nil {
				t.Fatalf("parseFrame accepted, UnmarshalUDP: %v", err)
			}
			if int(uh.Length) > len(seg) {
				t.Fatalf("parseFrame accepted UDP length %d past the %d-byte datagram", uh.Length, len(seg))
			}
			sport, dport, payLen = uh.SrcPort, uh.DstPort, int(uh.Length)-wire.UDPHeaderLen
		default:
			t.Fatalf("parseFrame accepted protocol %d", ih.Proto)
		}
		if sport != p.t.SrcPort || dport != p.t.DstPort || flags != p.flags || seq != p.seq || ack != p.ack || payLen != p.payLen {
			t.Fatalf("transport: ports %d->%d flags %#x seq %d ack %d pay %d; parseFrame %d->%d flags %#x seq %d ack %d pay %d",
				sport, dport, flags, seq, ack, payLen, p.t.SrcPort, p.t.DstPort, p.flags, p.seq, p.ack, p.payLen)
		}
	})
}
