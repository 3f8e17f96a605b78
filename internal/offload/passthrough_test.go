package offload

import (
	"bytes"
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
	uh.Marshal(b[wire.TransportAt:])
	return b
}

// withIPOptions returns a copy of frame with four bytes of IPv4 options
// (NOP NOP NOP EOL) inserted after the 20-byte header: IHL 6, TotalLen
// and the header checksum updated. The transport checksum still holds,
// since the pseudo-header does not cover IP options.
func withIPOptions(frame []byte) []byte {
	opts := []byte{1, 1, 1, 0}
	out := append(append(append([]byte(nil), frame[:wire.TransportAt]...), opts...), frame[wire.TransportAt:]...)
	ip := out[wire.EthHeaderLen:]
	ip[0] = 0x46
	tl := int(ip[2])<<8 | int(ip[3]) + len(opts)
	ip[2], ip[3] = byte(tl>>8), byte(tl)
	ip[10], ip[11] = 0, 0
	ck := wire.Checksum(ip[:wire.IPv4HeaderLen+len(opts)])
	ip[10], ip[11] = byte(ck>>8), byte(ck)
	return out
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

// TestRxPassesIPOptions: LRO rewrites a fixed 20-byte IPv4 header at
// flush, so segments carrying IP options are not the engine's to merge.
// Two in-order data segments with options pass up byte for byte.
func TestRxPassesIPOptions(t *testing.T) {
	env := newRxEnv(t)
	in := [][]byte{
		withIPOptions(tcpFrame(1000, 7, wire.TCPAck, pattern(0, 100))),
		withIPOptions(tcpFrame(1100, 7, wire.TCPAck, pattern(100, 100))),
	}
	env.inject(0, in[0])
	env.inject(100_000, in[1])
	env.run(t)
	if len(env.got) != len(in) {
		t.Fatalf("deliveries = %d, want %d", len(env.got), len(in))
	}
	for i, d := range env.got {
		if !bytes.Equal(d.data, in[i]) {
			t.Fatalf("delivery %d differs from the frame received", i)
		}
	}
	if v := env.e.Stats.LROMerged.Value(); v != 0 {
		t.Fatalf("lro_merged = %d, want 0", v)
	}
}

// TestTxPassesIPOptions: TSO marshals a fixed 20-byte IPv4 header into
// every slice, so a super-segment carrying IP options is not sliced; it
// passes to the NIC as it is, and the NIC refuses it as oversized.
func TestTxPassesIPOptions(t *testing.T) {
	env := newTxFifoEnv(t, 1, fifoCosts(0, 0))
	super := withIPOptions(tcpFrame(1000, 7, wire.TCPAck, pattern(0, 3*DefaultMSS)))
	var txErr error
	env.s.After(0, func() { txErr = env.e.Transmit(super) })
	if err := env.s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if v := env.e.Stats.TSOSuper.Value(); v != 0 {
		t.Fatalf("tso_super = %d, want 0", v)
	}
	if v := env.e.Stats.TxPass.Value(); v != 1 {
		t.Fatalf("tx_pass = %d, want 1", v)
	}
	if txErr == nil {
		t.Fatalf("NIC accepted an unsliced %d-byte frame", len(super))
	}
}

// TestParseUDPBounds: the engine takes a UDP datagram for checksum
// verification only when the IPv4 total length covers the UDP header,
// and then verifies exactly the datagram's transport bytes, never the
// Ethernet padding past its end. Either way the frame passes up.
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
			frame := udpFrame(tc.totalLen)
			m, ok := wire.ParseMeta(frame)
			if ok != tc.ok {
				t.Fatalf("ParseMeta ok = %v, want %v", ok, tc.ok)
			}
			if ok && m.PayloadAt() > wire.EthHeaderLen+tc.totalLen {
				t.Fatalf("payload offset %d past the datagram end %d", m.PayloadAt(), wire.EthHeaderLen+tc.totalLen)
			}
			env := newRxEnv(t)
			env.inject(0, frame)
			env.run(t)
			if len(env.got) != 1 || !bytes.Equal(env.got[0].data, frame) {
				t.Fatalf("deliveries = %d, want the frame passed up as received", len(env.got))
			}
			var wantFrames, wantBytes uint64
			if tc.ok {
				wantFrames, wantBytes = 1, uint64(tc.totalLen-wire.IPv4HeaderLen)
			}
			if f, b := env.e.Stats.RxCsumFrames.Value(), env.e.Stats.RxCsumBytes.Value(); f != wantFrames || b != wantBytes {
				t.Fatalf("rx_csum_frames %d rx_csum_bytes %d, want %d/%d", f, b, wantFrames, wantBytes)
			}
			if v := env.e.Stats.RxCsumBad.Value(); v != 0 {
				t.Fatalf("rx_csum_bad = %d, want 0", v)
			}
		})
	}
}

// FuzzOffloadParse drives arbitrary frames through the engine's receive
// path: it never panics; a frame wire.ParseMeta rejects passes up byte
// for byte with no checksum work counted; and an accepted one has
// exactly its datagram's transport bytes verified, so no offset the
// engine derives reaches past the datagram.
func FuzzOffloadParse(f *testing.F) {
	f.Add(tcpFrame(1000, 1, wire.TCPAck|wire.TCPPsh, pattern(0, 64)))
	f.Add(udpFrame(wire.IPv4HeaderLen + wire.UDPHeaderLen + 4))
	f.Add(udpFrame(wire.IPv4HeaderLen))
	f.Fuzz(func(t *testing.T, frame []byte) {
		env := newRxEnv(t)
		env.inject(0, append([]byte(nil), frame...))
		env.run(t)
		frames, csumBytes := env.e.Stats.RxCsumFrames.Value(), env.e.Stats.RxCsumBytes.Value()
		m, ok := wire.ParseMeta(frame)
		if !ok {
			if len(env.got) != 1 || !bytes.Equal(env.got[0].data, frame) || frames != 0 {
				t.Fatalf("rejected frame: deliveries %d rx_csum_frames %d, want it passed up untouched", len(env.got), frames)
			}
			return
		}
		if frames != 1 || csumBytes != uint64(m.End-wire.TransportAt) {
			t.Fatalf("rx_csum_frames %d rx_csum_bytes %d, want 1/%d", frames, csumBytes, m.End-wire.TransportAt)
		}
	})
}
