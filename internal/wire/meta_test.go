package wire

import (
	"encoding/binary"
	"testing"
)

var (
	metaSrc = IPAddr{10, 0, 0, 50}
	metaDst = IPAddr{10, 0, 0, 100}
)

// metaFrame builds an Ethernet/IPv4 frame of n bytes carrying a
// totalLen-byte datagram of protocol proto, with a valid header
// checksum. The transport bytes are left zero for the caller to fill.
func metaFrame(n, totalLen int, proto uint8) []byte {
	b := make([]byte, n)
	eh := EthHeader{Dst: MAC{2, 0, 0, 0, 0, 1}, Src: MAC{2, 0, 0, 0, 0, 0x50}, Type: EtherTypeIPv4}
	eh.Marshal(b)
	ih := IPv4Header{TotalLen: uint16(totalLen), TTL: DefaultTTL, Proto: proto, Src: metaSrc, Dst: metaDst}
	ih.Marshal(b[EthHeaderLen:])
	return b
}

// metaTCP builds a checksummed SYN carrying payload bytes of data.
func metaTCP(payload int) []byte {
	b := metaFrame(TransportAt+TCPHeaderLen+payload, IPv4HeaderLen+TCPHeaderLen+payload, ProtoTCP)
	th := TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 1, Flags: TCPSyn, Window: 65535}
	tb := b[TransportAt:]
	th.Marshal(tb)
	binary.BigEndian.PutUint16(tb[TCPChecksumOffset:], TCPChecksum(metaSrc, metaDst, tb[:TCPHeaderLen], tb[TCPHeaderLen:]))
	return b
}

// metaUDP builds a checksummed datagram carrying payload.
func metaUDP(payload []byte) []byte {
	n := UDPHeaderLen + len(payload)
	b := metaFrame(TransportAt+n, IPv4HeaderLen+n, ProtoUDP)
	uh := UDPHeader{SrcPort: 4000, DstPort: 53, Length: uint16(n)}
	tb := b[TransportAt:]
	uh.Marshal(tb)
	copy(tb[UDPHeaderLen:], payload)
	binary.BigEndian.PutUint16(tb[UDPChecksumOffset:], UDPChecksum(metaSrc, metaDst, tb[:UDPHeaderLen], payload))
	return b
}

// minUDP is a minimum-size (60-byte) Ethernet frame whose IPv4 header
// claims totalLen bytes, followed by an 8-byte UDP header and zero
// padding.
func minUDP(totalLen int) []byte {
	b := metaFrame(60, totalLen, ProtoUDP)
	uh := UDPHeader{SrcPort: 1000, DstPort: 2000, Length: UDPHeaderLen}
	uh.Marshal(b[TransportAt:])
	return b
}

// resealIP recomputes the IPv4 header checksum over the header length
// the IHL field claims, or over 20 bytes when that does not fit.
func resealIP(frame []byte) []byte {
	ip := frame[EthHeaderLen:]
	ihl := int(ip[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || ihl > len(ip) {
		ihl = IPv4HeaderLen
	}
	binary.BigEndian.PutUint16(ip[10:12], 0)
	binary.BigEndian.PutUint16(ip[10:12], Checksum(ip[:ihl]))
	return frame
}

// setTotalLen rewrites the IPv4 total length and reseals the header.
func setTotalLen(frame []byte, n int) []byte {
	binary.BigEndian.PutUint16(frame[EthHeaderLen+2:], uint16(n))
	return resealIP(frame)
}

// setUDPLen rewrites the UDP length field.
func setUDPLen(frame []byte, n int) []byte {
	binary.BigEndian.PutUint16(frame[TransportAt+4:], uint16(n))
	return frame
}

// withTCPOptions turns a TCP frame's first len(opts) payload bytes into
// header options by widening the data offset.
func withTCPOptions(frame, opts []byte) []byte {
	copy(frame[TransportAt+TCPHeaderLen:], opts)
	frame[TransportAt+12] = byte((TCPHeaderLen+len(opts))/4) << 4
	return frame
}

// withIPOptions inserts four bytes of IPv4 options (NOP NOP NOP EOL)
// after the 20-byte header and reseals it as IHL 6.
func withIPOptions(frame []byte) []byte {
	out := append(append(append([]byte(nil), frame[:TransportAt]...), 1, 1, 1, 0), frame[TransportAt:]...)
	out[EthHeaderLen] = 0x46
	tl := binary.BigEndian.Uint16(out[EthHeaderLen+2:])
	return setTotalLen(out, int(tl)+4)
}

// TestParseMeta pins ParseMeta's acceptance table. A datagram whose
// IPv4 total length does not cover its transport header is rejected
// even when the frame is long enough, so no rewrite reaches past the
// datagram's end, and a segment the stack would drop is not accepted.
func TestParseMeta(t *testing.T) {
	tcp := func() []byte { return metaTCP(8) }
	udp := func() []byte { return metaUDP([]byte("ping")) }
	for _, tc := range []struct {
		name   string
		frame  []byte
		ok     bool
		payLen int
	}{
		{"tcp", tcp(), true, 8},
		{"tcp with MSS option", withTCPOptions(tcp(), []byte{TCPOptMSS, 4, 5, 0xb4, TCPOptNop, TCPOptNop, TCPOptNop, TCPOptEnd}), true, 0},
		{"tcp malformed option", withTCPOptions(tcp(), []byte{TCPOptMSS, 9, 5, 0xb4}), false, 0},
		{"tcp total length < 40", setTotalLen(tcp(), 30), false, 0},
		{"udp", udp(), true, 4},
		{"udp total length < 28", setTotalLen(udp(), 24), false, 0},
		{"udp total length < 20", setTotalLen(udp(), 12), false, 0},
		{"udp length past datagram", setUDPLen(udp(), 13), false, 0},
		{"udp length < header", setUDPLen(udp(), 7), false, 0},
		{"total length past frame", setTotalLen(udp(), 200), false, 0},
		{"udp header-only datagram", minUDP(IPv4HeaderLen), false, 0},
		{"udp truncated header", minUDP(IPv4HeaderLen + UDPHeaderLen - 1), false, 0},
		{"udp empty datagram, padded frame", minUDP(IPv4HeaderLen + UDPHeaderLen), true, 0},
		{"udp four-byte body, padded frame", minUDP(IPv4HeaderLen + UDPHeaderLen + 4), true, 4},
		{"ip options", withIPOptions(tcp()), false, 0},
		{"bad ip header checksum", func() []byte { f := tcp(); f[EthHeaderLen+10] ^= 0xff; return f }(), false, 0},
		{"fragment", func() []byte { f := udp(); f[EthHeaderLen+6] |= IPFlagMF >> 8; return resealIP(f) }(), false, 0},
		{"not tcp or udp", func() []byte { f := udp(); f[EthHeaderLen+9] = ProtoICMP; return resealIP(f) }(), false, 0},
		{"not ipv4", func() []byte { f := udp(); f[13] = EtherTypeARP & 0xff; return f }(), false, 0},
		{"truncated ip header", tcp()[:TransportAt-1], false, 0},
	} {
		m, ok := ParseMeta(tc.frame)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if ok && m.PayloadLen() != tc.payLen {
			t.Errorf("%s: payload length %d, want %d", tc.name, m.PayloadLen(), tc.payLen)
		}
	}
}

// FuzzParseMeta holds ParseMeta to the wire package's own parsers: it
// never panics, accepts exactly when the reference chain in its doc
// comment accepts, and on accept its fields equal the Unmarshal* results
// with TransportAt <= payload offset <= End <= len(frame). Each input
// also runs with its IPv4 header checksum repaired, so mutations reach
// the TCP and UDP branches. The seed corpus lives in
// testdata/fuzz/FuzzParseMeta.
func FuzzParseMeta(f *testing.F) {
	f.Add(metaTCP(5))
	f.Add(metaUDP([]byte("ping")))
	f.Add(withIPOptions(metaTCP(5)))
	f.Fuzz(func(t *testing.T, frame []byte) {
		checkMeta(t, frame)
		if len(frame) >= TransportAt {
			checkMeta(t, resealIP(append([]byte(nil), frame...)))
		}
	})
}

// checkMeta compares ParseMeta on one frame with the reference chain.
func checkMeta(t *testing.T, frame []byte) {
	t.Helper()
	m, ok := ParseMeta(frame)
	want, wantOK := referenceMeta(frame)
	if ok != wantOK {
		t.Fatalf("ParseMeta ok = %v, reference chain %v", ok, wantOK)
	}
	if !ok {
		return
	}
	if m != want {
		t.Fatalf("ParseMeta %+v, reference chain %+v", m, want)
	}
	if at := m.PayloadAt(); !(TransportAt <= at && at <= m.End && m.End <= len(frame)) {
		t.Fatalf("offsets: payload %d end %d frame %d", at, m.End, len(frame))
	}
}

// referenceMeta is the acceptance rule written as the chain of the
// package's header parsers, one step per condition.
func referenceMeta(frame []byte) (Meta, bool) {
	var m Meta
	eh, err := UnmarshalEth(frame)
	if err != nil || eh.Type != EtherTypeIPv4 {
		return m, false
	}
	ih, ihl, err := UnmarshalIPv4(frame[EthHeaderLen:])
	if err != nil {
		return m, false
	}
	if ihl != IPv4HeaderLen {
		return m, false
	}
	if ih.IsFragment() || int(ih.TotalLen) > len(frame)-EthHeaderLen {
		return m, false
	}
	m.Eth, m.IP, m.End = eh, ih, EthHeaderLen+int(ih.TotalLen)
	seg := frame[EthHeaderLen+ihl : m.End]
	switch ih.Proto {
	case ProtoTCP:
		th, thl, err := UnmarshalTCP(seg)
		if err != nil {
			return m, false
		}
		m.TCP, m.TpHdrLen = th, thl
	case ProtoUDP:
		uh, err := UnmarshalUDP(seg)
		if err != nil || int(uh.Length) > len(seg) {
			return m, false
		}
		m.UDP, m.TpHdrLen = uh, UDPHeaderLen
	default:
		return m, false
	}
	return m, true
}
