package filter

import (
	"fmt"

	"repro/internal/wire"
)

// Frame offsets assumed by compiled session filters (Ethernet II, IPv4
// with no options — the compiled program verifies IHL=5 before trusting
// the transport offsets).
const (
	offEtherType = 12
	offIPVerIHL  = 14
	offIPFrag    = 20
	offIPProto   = 23
	offIPSrc     = 26
	offIPDst     = 30
	offSrcPort   = 34
	offDstPort   = 36
)

// MatchSpec describes the incoming packets a network session should
// receive. Zero-valued fields are wildcards. The spec is written from the
// session's point of view: Local* describe this host's endpoint (the
// packet's destination), Remote* describe the peer (the packet's source).
type MatchSpec struct {
	Proto      uint8 // IP protocol; 0 matches any
	LocalIP    wire.IPAddr
	LocalPort  uint16
	RemoteIP   wire.IPAddr
	RemotePort uint16
}

func (m MatchSpec) String() string {
	return fmt.Sprintf("%s %v:%d <- %v:%d", wire.ProtoName(m.Proto),
		m.LocalIP, m.LocalPort, m.RemoteIP, m.RemotePort)
}

// Compile translates a match specification into a filter program. The
// program accepts exactly the IPv4 frames matching the spec; frames with
// IP options are left to the fallback (operating-system server) filter,
// and non-first fragments never match a port-qualified spec (the server
// reassembles those and forwards them, since ports are only present in
// the first fragment).
func Compile(m MatchSpec) Program {
	var p Program
	test16 := func(off uint32, want uint16) {
		p = append(p,
			Instr{OpLoad16, off},
			Instr{OpPushLit, uint32(want)},
			Instr{OpEq, 0},
			Instr{OpAssert, 0})
	}
	test8 := func(off uint32, want uint8) {
		p = append(p,
			Instr{OpLoad8, off},
			Instr{OpPushLit, uint32(want)},
			Instr{OpEq, 0},
			Instr{OpAssert, 0})
	}
	test32 := func(off uint32, want uint32) {
		p = append(p,
			Instr{OpLoad32, off},
			Instr{OpPushLit, want},
			Instr{OpEq, 0},
			Instr{OpAssert, 0})
	}

	test16(offEtherType, wire.EtherTypeIPv4)
	test8(offIPVerIHL, 0x45)
	if m.Proto != 0 {
		test8(offIPProto, m.Proto)
	}
	if !m.RemoteIP.IsZero() {
		test32(offIPSrc, m.RemoteIP.Uint32())
	}
	if !m.LocalIP.IsZero() {
		test32(offIPDst, m.LocalIP.Uint32())
	}
	if m.LocalPort != 0 || m.RemotePort != 0 {
		// A port-qualified filter rejects every fragment — including the
		// first, which does carry ports — so that a fragmented datagram
		// reaches the operating-system server whole; the server
		// reassembles it and re-injects an unfragmented packet that this
		// filter can claim (paper §3.1, exceptional packets).
		p = append(p,
			Instr{OpLoad16, offIPFrag},
			Instr{OpPushLit, wire.IPFlagMF | wire.IPOffMask},
			Instr{OpAnd, 0},
			Instr{OpPushLit, 0},
			Instr{OpEq, 0},
			Instr{OpAssert, 0})
		if m.RemotePort != 0 {
			test16(offSrcPort, m.RemotePort)
		}
		if m.LocalPort != 0 {
			test16(offDstPort, m.LocalPort)
		}
	}
	p = append(p, Instr{OpPushLit, 1}, Instr{OpRet, 0})
	return p
}

// Matches is a direct (non-VM) evaluation of the spec against a frame:
// the reference the VM's tests compare compiled programs against. The
// in-kernel and server baselines do not call it; they install
// kern.CatchAllProgram.
func (m MatchSpec) Matches(frame []byte) bool {
	eh, err := wire.UnmarshalEth(frame)
	if err != nil || eh.Type != wire.EtherTypeIPv4 {
		return false
	}
	b := frame[wire.EthHeaderLen:]
	if len(b) < wire.IPv4HeaderLen || b[0] != 0x45 {
		return false
	}
	var src, dst wire.IPAddr
	copy(src[:], b[12:16])
	copy(dst[:], b[16:20])
	if m.Proto != 0 && b[9] != m.Proto {
		return false
	}
	if !m.RemoteIP.IsZero() && src != m.RemoteIP {
		return false
	}
	if !m.LocalIP.IsZero() && dst != m.LocalIP {
		return false
	}
	if m.LocalPort != 0 || m.RemotePort != 0 {
		if fragWord := uint16(b[6])<<8 | uint16(b[7]); fragWord&(wire.IPFlagMF|wire.IPOffMask) != 0 {
			return false
		}
		if len(b) < wire.IPv4HeaderLen+4 {
			return false
		}
		sp := uint16(b[20])<<8 | uint16(b[21])
		dp := uint16(b[22])<<8 | uint16(b[23])
		if m.RemotePort != 0 && sp != m.RemotePort {
			return false
		}
		if m.LocalPort != 0 && dp != m.LocalPort {
			return false
		}
	}
	return true
}
