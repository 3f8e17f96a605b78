package offload

import (
	"testing"

	"repro/internal/wire"
)

// udpFrame builds a 60-byte (minimum Ethernet) frame holding an IPv4
// header that claims totalLen bytes of datagram, with a valid header
// checksum, followed by a UDP header and zero padding.
func udpFrame(totalLen int) []byte {
	b := make([]byte, 60)
	eh := wire.EthHeader{Dst: wire.MAC{2}, Src: wire.MAC{1}, Type: wire.EtherTypeIPv4}
	eh.Marshal(b)
	ih := wire.IPv4Header{
		TotalLen: uint16(totalLen),
		TTL:      wire.DefaultTTL,
		Proto:    wire.ProtoUDP,
		Src:      testSrc,
		Dst:      testDst,
	}
	ih.Marshal(b[wire.EthHeaderLen:])
	uh := wire.UDPHeader{SrcPort: 1000, DstPort: 2000, Length: wire.UDPHeaderLen}
	uh.Marshal(b[wire.EthHeaderLen+wire.IPv4HeaderLen:])
	return b
}

// TestParseUDPBounds: parse accepts a UDP datagram only when the IPv4
// total length covers the UDP header, so payAt never points past the
// datagram's end.
func TestParseUDPBounds(t *testing.T) {
	for _, tc := range []struct {
		name     string
		totalLen int
		ok       bool
	}{
		{"header-only", wire.IPv4HeaderLen, false},
		{"truncated-udp-header", wire.IPv4HeaderLen + wire.UDPHeaderLen - 1, false},
		{"empty-datagram", wire.IPv4HeaderLen + wire.UDPHeaderLen, true},
		{"four-byte-body", wire.IPv4HeaderLen + wire.UDPHeaderLen + 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, ok := parse(udpFrame(tc.totalLen))
			if ok != tc.ok {
				t.Fatalf("parse ok = %v, want %v", ok, tc.ok)
			}
			if ok && p.payAt > wire.EthHeaderLen+tc.totalLen {
				t.Fatalf("payAt %d past the datagram end %d", p.payAt, wire.EthHeaderLen+tc.totalLen)
			}
		})
	}
}

// TestRxPassesHeaderOnlyUDP: a datagram too short to hold a UDP header
// is not the engine's to verify; it passes up for the stack to reject
// rather than being counted as a bad checksum.
func TestRxPassesHeaderOnlyUDP(t *testing.T) {
	env := newRxEnv(t)
	env.inject(0, udpFrame(wire.IPv4HeaderLen))
	env.run(t)
	if len(env.got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(env.got))
	}
	if v := env.e.Stats.RxCsumBad.Value(); v != 0 {
		t.Fatalf("rx_csum_bad = %d, want 0", v)
	}
}

// FuzzOffloadParse: parse never panics, every offset it returns lies
// inside the datagram, and for TCP it agrees with the wire package's
// own header parsers.
func FuzzOffloadParse(f *testing.F) {
	f.Add(tcpFrame(1000, 1, wire.TCPAck|wire.TCPPsh, pattern(0, 64)))
	f.Add(udpFrame(wire.IPv4HeaderLen + wire.UDPHeaderLen + 4))
	f.Add(udpFrame(wire.IPv4HeaderLen))
	f.Fuzz(func(t *testing.T, frame []byte) {
		p, ok := parse(frame)
		if !ok {
			return
		}
		end := wire.EthHeaderLen + int(p.ip.TotalLen)
		if !(p.tpAt <= p.payAt && p.payAt <= end && end <= len(frame)) {
			t.Fatalf("offsets tpAt %d payAt %d end %d len %d out of order", p.tpAt, p.payAt, end, len(frame))
		}
		eh, err := wire.UnmarshalEth(frame)
		if err != nil || eh.Type != wire.EtherTypeIPv4 {
			t.Fatalf("parse accepted, UnmarshalEth: type %#x err %v", eh.Type, err)
		}
		ih, ihl, err := wire.UnmarshalIPv4(frame[wire.EthHeaderLen:])
		if err != nil {
			t.Fatalf("parse accepted, UnmarshalIPv4: %v", err)
		}
		if ih.Src != p.ip.Src || ih.Dst != p.ip.Dst || ih.Proto != p.ip.Proto || wire.EthHeaderLen+ihl != p.tpAt {
			t.Fatalf("ip: %v->%v proto %d hlen %d; parse %v->%v proto %d tpAt %d",
				ih.Src, ih.Dst, ih.Proto, ihl, p.ip.Src, p.ip.Dst, p.ip.Proto, p.tpAt)
		}
		if ih.Proto != wire.ProtoTCP {
			return
		}
		th, thl, err := wire.UnmarshalTCP(frame[p.tpAt:end])
		if err != nil {
			t.Fatalf("parse accepted, UnmarshalTCP: %v", err)
		}
		if th.SrcPort != p.tcp.SrcPort || th.DstPort != p.tcp.DstPort || th.Flags != p.tcp.Flags || thl != p.tcpHLen || p.payAt != p.tpAt+thl {
			t.Fatalf("tcp: ports %d->%d flags %#x hlen %d; parse %d->%d flags %#x hlen %d payAt %d",
				th.SrcPort, th.DstPort, th.Flags, thl, p.tcp.SrcPort, p.tcp.DstPort, p.tcp.Flags, p.tcpHLen, p.payAt)
		}
	})
}
