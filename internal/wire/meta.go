package wire

// TransportAt is the offset of the transport header in every frame
// ParseMeta accepts: an Ethernet header and an option-free IPv4 header.
const TransportAt = EthHeaderLen + IPv4HeaderLen

// Meta is one Ethernet/IPv4 TCP or UDP frame's decoded headers: the one
// view of a frame that the offload engine and the data plane share.
type Meta struct {
	Eth EthHeader
	IP  IPv4Header
	TCP TCPHeader // set when IP.Proto is ProtoTCP
	UDP UDPHeader // set when IP.Proto is ProtoUDP

	// TpHdrLen is the transport header length: the TCP data offset, or
	// UDPHeaderLen.
	TpHdrLen int
	// End is the offset just past the datagram, EthHeaderLen+IP.TotalLen.
	// It can fall short of the frame's length, since Ethernet pads short
	// frames.
	End int
}

// ParseMeta decodes a frame's headers. It accepts exactly when:
//
//  1. UnmarshalEth succeeds and the type is IPv4;
//  2. UnmarshalIPv4 succeeds, so the header checksum is valid;
//  3. the IPv4 header length is exactly IPv4HeaderLen (no stack here
//     emits options, and TSO slicing and LRO flushes rewrite a fixed
//     20-byte header);
//  4. the datagram is not a fragment and TotalLen fits in the frame;
//  5. UnmarshalTCP succeeds on the segment, or UnmarshalUDP does and the
//     UDP length fits in the segment;
//  6. the protocol is TCP or UDP.
//
// Everything else is not a frame the offload engine or the data plane
// acts on; they pass it along untouched for the stack to judge.
func ParseMeta(frame []byte) (m Meta, ok bool) {
	eh, err := UnmarshalEth(frame)
	if err != nil || eh.Type != EtherTypeIPv4 {
		return m, false
	}
	ip, ihl, err := UnmarshalIPv4(frame[EthHeaderLen:])
	if err != nil || ihl != IPv4HeaderLen || ip.IsFragment() || int(ip.TotalLen) > len(frame)-EthHeaderLen {
		return m, false
	}
	m.Eth, m.IP, m.End = eh, ip, EthHeaderLen+int(ip.TotalLen)
	seg := frame[TransportAt:m.End]
	switch ip.Proto {
	case ProtoTCP:
		m.TCP, m.TpHdrLen, err = UnmarshalTCP(seg)
		return m, err == nil
	case ProtoUDP:
		m.UDP, err = UnmarshalUDP(seg)
		m.TpHdrLen = UDPHeaderLen
		return m, err == nil && int(m.UDP.Length) <= len(seg)
	}
	return m, false
}

// PayloadAt returns the offset of the transport payload.
func (m *Meta) PayloadAt() int { return TransportAt + m.TpHdrLen }

// PayloadLen returns the transport payload length within the datagram.
// For UDP it counts to the datagram's end, not to the UDP length.
func (m *Meta) PayloadLen() int { return m.End - m.PayloadAt() }
