package dataplane

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/sim"
	"repro/internal/wire"
)

var (
	lbIP      = wire.IP(10, 0, 0, 1)
	lbMAC     = wire.MAC{2, 0, 0, 0, 0, 0x01}
	vipIP     = wire.IP(10, 0, 0, 100)
	clientIP  = wire.IP(10, 0, 0, 50)
	clientMAC = wire.MAC{2, 0, 0, 0, 0, 0x50}
	be1IP     = wire.IP(10, 0, 0, 11)
	be1MAC    = wire.MAC{2, 0, 0, 0, 0, 0x11}
	be2IP     = wire.IP(10, 0, 0, 12)
	be2MAC    = wire.MAC{2, 0, 0, 0, 0, 0x12}
)

const (
	vipPort = uint16(80)
	bePort  = uint16(8080)
	clPort  = uint16(4000)
)

type harness struct {
	s    *sim.Sim
	p    *Plane
	sent [][]byte
}

func newHarness(t *testing.T, mut func(*Config)) *harness {
	t.Helper()
	h := &harness{s: sim.New(1)}
	cfg := Config{
		Sim:      h.s,
		Name:     "lb",
		LocalIP:  lbIP,
		LocalMAC: lbMAC,
		Transmit: func(f []byte) error { h.sent = append(h.sent, f); return nil },
	}
	if mut != nil {
		mut(&cfg)
	}
	h.p = New(cfg)
	return h
}

func (h *harness) vip(t *testing.T) *VIP {
	t.Helper()
	v, err := h.p.InstallVIP(vipIP, vipPort, []Backend{
		{Name: "be1", IP: be1IP, Port: bePort, MAC: be1MAC},
		{Name: "be2", IP: be2IP, Port: bePort, MAC: be2MAC},
	})
	if err != nil {
		t.Fatalf("InstallVIP: %v", err)
	}
	return v
}

// takeSent pops all captured transmissions.
func (h *harness) takeSent() [][]byte {
	out := h.sent
	h.sent = nil
	return out
}

// tcpFrame builds a checksummed Ethernet/IPv4/TCP frame.
func tcpFrame(srcMAC, dstMAC wire.MAC, src, dst wire.IPAddr, sport, dport uint16, flags uint8, seq, ack uint32, payload []byte) []byte {
	frame := make([]byte, tpAt+wire.TCPHeaderLen+len(payload))
	eh := wire.EthHeader{Dst: dstMAC, Src: srcMAC, Type: wire.EtherTypeIPv4}
	eh.Marshal(frame)
	th := wire.TCPHeader{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Flags: flags, Window: 65535}
	tb := frame[tpAt:]
	th.Marshal(tb[:wire.TCPHeaderLen])
	copy(tb[wire.TCPHeaderLen:], payload)
	ck := wire.TCPChecksum(src, dst, tb[:wire.TCPHeaderLen], payload)
	binary.BigEndian.PutUint16(tb[wire.TCPChecksumOffset:], ck)
	ih := wire.IPv4Header{
		TotalLen: uint16(wire.IPv4HeaderLen + wire.TCPHeaderLen + len(payload)),
		TTL:      wire.DefaultTTL, Proto: wire.ProtoTCP, Src: src, Dst: dst,
	}
	ih.Marshal(frame[ipAt:tpAt])
	return frame
}

// udpFrame builds a checksummed Ethernet/IPv4/UDP frame.
func udpFrame(srcMAC, dstMAC wire.MAC, src, dst wire.IPAddr, sport, dport uint16, payload []byte, checksummed bool) []byte {
	frame := make([]byte, tpAt+wire.UDPHeaderLen+len(payload))
	eh := wire.EthHeader{Dst: dstMAC, Src: srcMAC, Type: wire.EtherTypeIPv4}
	eh.Marshal(frame)
	tb := frame[tpAt:]
	uh := wire.UDPHeader{SrcPort: sport, DstPort: dport, Length: uint16(wire.UDPHeaderLen + len(payload))}
	uh.Marshal(tb[:wire.UDPHeaderLen])
	copy(tb[wire.UDPHeaderLen:], payload)
	if checksummed {
		ck := wire.UDPChecksum(src, dst, tb[:wire.UDPHeaderLen], payload)
		binary.BigEndian.PutUint16(tb[wire.UDPChecksumOffset:], ck)
	}
	ih := wire.IPv4Header{
		TotalLen: uint16(wire.IPv4HeaderLen + wire.UDPHeaderLen + len(payload)),
		TTL:      wire.DefaultTTL, Proto: wire.ProtoUDP, Src: src, Dst: dst,
	}
	ih.Marshal(frame[ipAt:tpAt])
	return frame
}

// checkFrame validates a rewritten frame end to end: IP header checksum,
// transport checksum against the rewritten addresses, and the expected
// 5-tuple and Ethernet addressing.
func checkFrame(t *testing.T, frame []byte, wantDstMAC wire.MAC, src, dst wire.IPAddr, sport, dport uint16) {
	t.Helper()
	checkFrameTTL(t, frame, wire.DefaultTTL-1, wantDstMAC, src, dst, sport, dport)
}

// checkFrameTTL is checkFrame with an explicit expected TTL (forwarded
// frames are decremented; locally synthesized ones are not).
func checkFrameTTL(t *testing.T, frame []byte, wantTTL uint8, wantDstMAC wire.MAC, src, dst wire.IPAddr, sport, dport uint16) {
	t.Helper()
	ip := frame[ipAt:]
	var c wire.Checksummer
	c.Add(ip[:wire.IPv4HeaderLen])
	if c.Sum() != 0 {
		t.Fatalf("IP checksum invalid after rewrite")
	}
	var gotSrc, gotDst wire.IPAddr
	copy(gotSrc[:], ip[12:16])
	copy(gotDst[:], ip[16:20])
	if gotSrc != src || gotDst != dst {
		t.Fatalf("addresses = %v->%v, want %v->%v", gotSrc, gotDst, src, dst)
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	seg := ip[wire.IPv4HeaderLen:totalLen]
	switch ip[9] {
	case wire.ProtoTCP:
		if !wire.VerifyTCPChecksum(src, dst, seg) {
			t.Fatalf("TCP checksum invalid after rewrite")
		}
	case wire.ProtoUDP:
		if !wire.VerifyUDPChecksum(src, dst, seg) {
			t.Fatalf("UDP checksum invalid after rewrite")
		}
	}
	tp := ip[wire.IPv4HeaderLen:]
	if got := binary.BigEndian.Uint16(tp[0:2]); got != sport {
		t.Fatalf("sport = %d, want %d", got, sport)
	}
	if got := binary.BigEndian.Uint16(tp[2:4]); got != dport {
		t.Fatalf("dport = %d, want %d", got, dport)
	}
	var gotMAC wire.MAC
	copy(gotMAC[:], frame[0:6])
	if gotMAC != wantDstMAC {
		t.Fatalf("eth dst = %v, want %v", gotMAC, wantDstMAC)
	}
	if ip[8] != wantTTL {
		t.Fatalf("TTL = %d, want %d", ip[8], wantTTL)
	}
}

// TestVIPFullNAT drives one TCP connection through the load balancer:
// SYN in (DNAT+SNAT hairpin), SYN|ACK back (un-NAT hairpin), data, and
// teardown, checking checksums and conntrack state at each step.
func TestVIPFullNAT(t *testing.T) {
	h := newHarness(t, nil)
	v := h.vip(t)

	syn := tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPSyn, 1000, 0, nil)
	nf, verdict := h.p.Ingress(syn)
	if verdict != filter.VerdictAbsorb || nf != nil {
		t.Fatalf("SYN: verdict %v, frame %v", verdict, nf != nil)
	}
	sent := h.takeSent()
	if len(sent) != 1 {
		t.Fatalf("SYN: %d frames sent, want 1", len(sent))
	}
	if h.p.FlowCount() != 1 || h.p.SNATInUse() != 1 {
		t.Fatalf("flows=%d snat=%d after SYN", h.p.FlowCount(), h.p.SNATInUse())
	}
	f := h.p.sortedFlows()[0]
	if f.state != StateSynSent {
		t.Fatalf("state = %v, want syn_sent", f.state)
	}
	be := v.backends[f.backend]
	checkFrame(t, sent[0], be.MAC, lbIP, be.IP, f.snat, bePort)
	if be.Conns.Value() != 1 || be.liveFlows != 1 {
		t.Fatalf("backend accounting: conns=%d live=%d", be.Conns.Value(), be.liveFlows)
	}

	// Backend answers; the reply is un-NATted back to the client as
	// VIP:80 -> client.
	synack := tcpFrame(be.MAC, lbMAC, be.IP, lbIP, bePort, f.snat, wire.TCPSyn|wire.TCPAck, 7000, 1001, nil)
	nf, verdict = h.p.Ingress(synack)
	if verdict != filter.VerdictAbsorb || nf != nil {
		t.Fatalf("SYN|ACK: verdict %v", verdict)
	}
	sent = h.takeSent()
	if len(sent) != 1 {
		t.Fatalf("SYN|ACK: %d frames sent", len(sent))
	}
	checkFrame(t, sent[0], clientMAC, vipIP, clientIP, vipPort, clPort)
	if f.state != StateSynRecv || !f.sawReply {
		t.Fatalf("state = %v sawReply=%v", f.state, f.sawReply)
	}

	// Client completes the handshake and sends data.
	ack := tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPAck, 1001, 7001, []byte("hello"))
	if _, verdict = h.p.Ingress(ack); verdict != filter.VerdictAbsorb {
		t.Fatalf("data: verdict %v", verdict)
	}
	sent = h.takeSent()
	checkFrame(t, sent[0], be.MAC, lbIP, be.IP, f.snat, bePort)
	if f.state != StateEstablished {
		t.Fatalf("state = %v, want established", f.state)
	}
	if f.clientAck != 7001 || f.clientEndSeq != 1006 {
		t.Fatalf("clientAck=%d clientEndSeq=%d", f.clientAck, f.clientEndSeq)
	}

	// Orderly close from both sides.
	h.p.Ingress(tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPFin|wire.TCPAck, 1006, 7001, nil))
	if f.state != StateFinWait {
		t.Fatalf("after client FIN: %v", f.state)
	}
	h.p.Ingress(tcpFrame(be.MAC, lbMAC, be.IP, lbIP, bePort, f.snat, wire.TCPFin|wire.TCPAck, 7001, 1007, nil))
	if f.state != StateLastAck {
		t.Fatalf("after backend FIN: %v", f.state)
	}
	h.p.Ingress(tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPAck, 1007, 7002, nil))
	if f.state != StateTimeWait {
		t.Fatalf("after last ACK: %v", f.state)
	}
	h.takeSent()

	// GC reclaims the flow (and its SNAT port) once it sits idle.
	if err := h.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if h.p.FlowCount() != 0 || h.p.SNATInUse() != 0 {
		t.Fatalf("flows=%d snat=%d after GC", h.p.FlowCount(), h.p.SNATInUse())
	}
	if h.p.Stats.CTExpired.Value() != 1 {
		t.Fatalf("expired = %d", h.p.Stats.CTExpired.Value())
	}
}

// TestVIPMidStreamSegmentDropped: a non-SYN TCP segment with no flow
// entry must not reach a backend.
func TestVIPMidStreamSegmentDropped(t *testing.T) {
	h := newHarness(t, nil)
	h.vip(t)
	seg := tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPAck, 5, 5, []byte("x"))
	if _, verdict := h.p.Ingress(seg); verdict != filter.VerdictDrop {
		t.Fatalf("verdict %v, want drop", verdict)
	}
	if h.p.Stats.CTInvalid.Value() != 1 {
		t.Fatal("ct invalid not counted")
	}
}

// TestVIPUDP: UDP flows through the VIP keep valid checksums, and the
// zero ("no checksum") marker survives rewriting untouched.
func TestVIPUDP(t *testing.T) {
	h := newHarness(t, nil)
	v := h.vip(t)

	d := udpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, []byte("ping"), true)
	if _, verdict := h.p.Ingress(d); verdict != filter.VerdictAbsorb {
		t.Fatalf("verdict %v", verdict)
	}
	f := h.p.sortedFlows()[0]
	be := v.backends[f.backend]
	sent := h.takeSent()
	checkFrame(t, sent[0], be.MAC, lbIP, be.IP, f.snat, bePort)

	// Same flow, checksum disabled: the zero field must stay zero.
	d0 := udpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, []byte("pong"), false)
	h.p.Ingress(d0)
	sent = h.takeSent()
	out := sent[0]
	if got := binary.BigEndian.Uint16(out[tpAt+wire.UDPChecksumOffset:]); got != 0 {
		t.Fatalf("zero UDP checksum rewritten to %#x", got)
	}
}

// TestKillBackendRehomesEmbryonic: an un-answered connection whose
// backend dies is re-pointed at a survivor, and the client's SYN
// retransmission reaches the new backend. Nothing leaks.
func TestKillBackendRehomesEmbryonic(t *testing.T) {
	h := newHarness(t, nil)
	v := h.vip(t)

	syn := tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPSyn, 1000, 0, nil)
	h.p.Ingress(syn)
	f := h.p.sortedFlows()[0]
	dead := f.backend
	h.takeSent()

	v.KillBackend(dead)
	if h.p.Stats.LBRehomed.Value() != 1 {
		t.Fatalf("rehomed = %d", h.p.Stats.LBRehomed.Value())
	}
	if f.backend == dead {
		t.Fatal("flow still pinned to dead backend")
	}
	if h.p.FlowCount() != 1 || h.p.SNATInUse() != 1 {
		t.Fatalf("flows=%d snat=%d", h.p.FlowCount(), h.p.SNATInUse())
	}
	live := v.backends[f.backend]
	if v.backends[dead].liveFlows != 0 || live.liveFlows != 1 {
		t.Fatalf("liveFlows: dead=%d live=%d", v.backends[dead].liveFlows, live.liveFlows)
	}

	// The retransmitted SYN follows the re-homed translation.
	h.p.Ingress(syn)
	sent := h.takeSent()
	if len(sent) != 1 {
		t.Fatalf("%d frames after retransmit", len(sent))
	}
	checkFrame(t, sent[0], live.MAC, lbIP, live.IP, f.snat, bePort)

	// And the new backend's answer completes the handshake.
	synack := tcpFrame(live.MAC, lbMAC, live.IP, lbIP, bePort, f.snat, wire.TCPSyn|wire.TCPAck, 9000, 1001, nil)
	if _, verdict := h.p.Ingress(synack); verdict != filter.VerdictAbsorb {
		t.Fatalf("rehomed SYN|ACK: %v", verdict)
	}
	if f.state != StateSynRecv {
		t.Fatalf("state = %v", f.state)
	}
}

// TestKillBackendResetsEstablished: established flows on a dead backend
// are terminated with a well-formed RST toward the client, and every
// session and SNAT port is released.
func TestKillBackendResetsEstablished(t *testing.T) {
	h := newHarness(t, nil)
	v := h.vip(t)

	h.p.Ingress(tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPSyn, 1000, 0, nil))
	f := h.p.sortedFlows()[0]
	be := v.backends[f.backend]
	h.p.Ingress(tcpFrame(be.MAC, lbMAC, be.IP, lbIP, bePort, f.snat, wire.TCPSyn|wire.TCPAck, 7000, 1001, nil))
	h.p.Ingress(tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPAck, 1001, 7001, nil))
	if f.state != StateEstablished {
		t.Fatalf("state = %v", f.state)
	}
	snat := f.snat // removeFlow zeroes it when the kill releases the port
	h.takeSent()

	v.KillBackend(f.backend)
	if h.p.Stats.LBResets.Value() != 1 {
		t.Fatalf("resets = %d", h.p.Stats.LBResets.Value())
	}
	if h.p.FlowCount() != 0 || h.p.SNATInUse() != 0 {
		t.Fatalf("leak: flows=%d snat=%d", h.p.FlowCount(), h.p.SNATInUse())
	}
	sent := h.takeSent()
	if len(sent) != 2 {
		t.Fatalf("%d frames sent on kill, want 2 (client + backend RST)", len(sent))
	}
	rst := sent[0]
	checkFrameTTL(t, rst, wire.DefaultTTL, clientMAC, vipIP, clientIP, vipPort, clPort)
	tp := rst[tpAt:]
	if tp[13] != wire.TCPRst|wire.TCPAck {
		t.Fatalf("flags = %s", wire.FlagString(tp[13]))
	}
	// The RST must carry the client's rcv_nxt so its TCP accepts it.
	if got := binary.BigEndian.Uint32(tp[4:8]); got != 7001 {
		t.Fatalf("RST seq = %d, want 7001", got)
	}
	// The mirror reset tears down the dead backend's half of the session.
	brst := sent[1]
	checkFrameTTL(t, brst, wire.DefaultTTL, be.MAC, lbIP, be.IP, snat, bePort)
	btp := brst[tpAt:]
	if btp[13] != wire.TCPRst {
		t.Fatalf("backend RST flags = %s", wire.FlagString(btp[13]))
	}
	if got := binary.BigEndian.Uint32(btp[4:8]); got != 1001 {
		t.Fatalf("backend RST seq = %d, want 1001 (client seq space)", got)
	}
}

// TestAddBackendPinsExistingFlows: growing the pool must not move a
// conntrack-pinned flow even if the hash now prefers the new member.
func TestAddBackendPinsExistingFlows(t *testing.T) {
	h := newHarness(t, nil)
	v := h.vip(t)

	h.p.Ingress(tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPSyn, 1000, 0, nil))
	f := h.p.sortedFlows()[0]
	pinned := f.backend
	h.takeSent()

	v.AddBackend(Backend{Name: "be3", IP: wire.IP(10, 0, 0, 13), Port: bePort, MAC: wire.MAC{2, 0, 0, 0, 0, 0x13}})
	h.p.Ingress(tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPSyn, 1000, 0, nil))
	if f.backend != pinned {
		t.Fatal("pool growth moved a pinned flow")
	}
	sent := h.takeSent()
	checkFrame(t, sent[0], v.backends[pinned].MAC, lbIP, v.backends[pinned].IP, f.snat, bePort)
}

// TestVIPNoBackends: with every backend dead, new connections are
// refused, not crashed into.
func TestVIPNoBackends(t *testing.T) {
	h := newHarness(t, nil)
	v := h.vip(t)
	v.KillBackend(0)
	v.KillBackend(1)
	syn := tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPSyn, 1, 0, nil)
	if _, verdict := h.p.Ingress(syn); verdict != filter.VerdictDrop {
		t.Fatalf("verdict %v, want drop", verdict)
	}
	if h.p.Stats.LBRefused.Value() != 1 {
		t.Fatal("refusal not counted")
	}
}

// TestARPProxy: the plane answers ARP requests for VIP addresses with
// the host's MAC and absorbs the request.
func TestARPProxy(t *testing.T) {
	h := newHarness(t, nil)
	h.vip(t)

	req := wire.ARPPacket{Op: wire.ARPRequest, SenderMAC: clientMAC, SenderIP: clientIP, TargetIP: vipIP}
	frame := make([]byte, wire.EthHeaderLen+wire.ARPLen)
	eh := wire.EthHeader{Dst: wire.BroadcastMAC, Src: clientMAC, Type: wire.EtherTypeARP}
	eh.Marshal(frame)
	copy(frame[wire.EthHeaderLen:], req.Marshal())

	if _, verdict := h.p.Ingress(frame); verdict != filter.VerdictAbsorb {
		t.Fatalf("verdict %v", verdict)
	}
	sent := h.takeSent()
	if len(sent) != 1 {
		t.Fatalf("%d frames sent", len(sent))
	}
	reply, err := wire.UnmarshalARP(sent[0][wire.EthHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if reply.Op != wire.ARPReply || reply.SenderIP != vipIP || reply.SenderMAC != lbMAC || reply.TargetMAC != clientMAC {
		t.Fatalf("bad ARP reply: %+v", reply)
	}

	// ARP for an unowned address passes through untouched.
	req.TargetIP = wire.IP(10, 0, 0, 99)
	copy(frame[wire.EthHeaderLen:], req.Marshal())
	if _, verdict := h.p.Ingress(frame); verdict != filter.VerdictPass {
		t.Fatalf("unowned ARP: verdict %v", verdict)
	}
}

// TestRedirect: a DNAT-to-local rule rewrites inbound connections to
// the host's own stack, and Egress un-NATs the replies in place.
func TestRedirect(t *testing.T) {
	h := newHarness(t, nil)
	rdIP := wire.IP(10, 0, 0, 200)
	if err := h.p.InstallRedirect(rdIP, 80, 8080); err != nil {
		t.Fatal(err)
	}

	syn := tcpFrame(clientMAC, lbMAC, clientIP, rdIP, clPort, 80, wire.TCPSyn, 500, 0, nil)
	nf, verdict := h.p.Ingress(syn)
	if verdict != filter.VerdictPass || nf == nil {
		t.Fatalf("verdict %v, frame %v", verdict, nf != nil)
	}
	// The rewritten frame heads for the local stack, client identity kept.
	checkFrame(t, nf, lbMAC, clientIP, lbIP, clPort, 8080)

	// The stack's reply is un-NATted on egress so the client sees the
	// address it connected to.
	reply := tcpFrame(lbMAC, clientMAC, lbIP, clientIP, 8080, clPort, wire.TCPSyn|wire.TCPAck, 300, 501, nil)
	nf, verdict = h.p.Egress(reply)
	if verdict != filter.VerdictPass || nf == nil {
		t.Fatalf("egress: verdict %v, frame %v", verdict, nf != nil)
	}
	checkFrame(t, nf, clientMAC, rdIP, clientIP, 80, clPort)
	f := h.p.sortedFlows()[0]
	if f.state != StateSynRecv || !f.sawReply {
		t.Fatalf("state %v sawReply %v", f.state, f.sawReply)
	}
}

// TestChainVerdicts: the plane's rule chain drops or passes ahead of
// the stateful stages.
func TestChainVerdicts(t *testing.T) {
	h := newHarness(t, nil)
	h.vip(t)
	// Drop anything from the client's address.
	prog := filter.Compile(filter.MatchSpec{RemoteIP: clientIP})
	if _, err := h.p.Chain.Append(prog, filter.VerdictDrop); err != nil {
		t.Fatal(err)
	}
	syn := tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPSyn, 1, 0, nil)
	if _, verdict := h.p.Ingress(syn); verdict != filter.VerdictDrop {
		t.Fatalf("verdict %v, want drop", verdict)
	}
	if h.p.FlowCount() != 0 {
		t.Fatal("dropped frame created a flow")
	}
}

// TestIngressCostScalesWithChain: cost is linear in installed rule
// instructions and independent of the frame.
func TestIngressCostScalesWithChain(t *testing.T) {
	h := newHarness(t, nil)
	base := h.p.IngressCost(nil)
	if base != DefaultPerPacket {
		t.Fatalf("empty-chain cost = %v", base)
	}
	prog := filter.Compile(filter.MatchSpec{RemoteIP: clientIP})
	if _, err := h.p.Chain.Append(prog, filter.VerdictDrop); err != nil {
		t.Fatal(err)
	}
	want := DefaultPerPacket + time.Duration(h.p.Chain.Instructions())*DefaultPerInstr
	if got := h.p.IngressCost(nil); got != want {
		t.Fatalf("cost = %v, want %v", got, want)
	}
}

// TestTTLExpiry: a frame arriving with TTL 1 is dropped, not forwarded
// with TTL 0.
func TestTTLExpiry(t *testing.T) {
	h := newHarness(t, nil)
	h.vip(t)
	syn := tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPSyn, 1, 0, nil)
	syn[ipAt+8] = 1 // corrupt TTL; checksum no longer matters for the drop path
	if _, verdict := h.p.Ingress(syn); verdict != filter.VerdictDrop {
		t.Fatalf("verdict %v, want drop", verdict)
	}
}

// TestSNATExhaustion: when the port pool is empty new connections are
// refused and counted.
func TestSNATExhaustion(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.SNATCount = 2 })
	h.vip(t)
	for i := 0; i < 3; i++ {
		syn := tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort+uint16(i), vipPort, wire.TCPSyn, 1, 0, nil)
		h.p.Ingress(syn)
	}
	if h.p.SNATInUse() != 2 || h.p.Stats.SNATFailed.Value() != 1 {
		t.Fatalf("snat=%d failed=%d", h.p.SNATInUse(), h.p.Stats.SNATFailed.Value())
	}
}

// withOptions turns a TCP frame's first len(opts) payload bytes into
// header options by widening the data offset.
func withOptions(frame, opts []byte) []byte {
	copy(frame[tpAt+wire.TCPHeaderLen:], opts)
	frame[tpAt+12] = byte((wire.TCPHeaderLen+len(opts))/4) << 4
	return frame
}

// TestParseFrameBounds pins parseFrame's acceptance table. Well-formed
// TCP and UDP frames parse; a datagram whose IPv4 total length does not
// cover its transport header is rejected even when the frame is long
// enough, so NAT never rewrites ports or checksums past the datagram's
// end; and a segment the stack would drop never enters the tables.
func TestParseFrameBounds(t *testing.T) {
	tcp := func() []byte {
		return tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPSyn, 1, 0, make([]byte, 8))
	}
	udp := func() []byte {
		return udpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, []byte("ping"), true)
	}
	totalLen := func(f []byte, n int) []byte {
		binary.BigEndian.PutUint16(f[ipAt+2:], uint16(n))
		return f
	}
	udpLen := func(f []byte, n int) []byte {
		binary.BigEndian.PutUint16(f[tpAt+4:], uint16(n))
		return f
	}
	for _, tc := range []struct {
		name   string
		frame  []byte
		ok     bool
		payLen int
	}{
		{"tcp", tcp(), true, 8},
		{"tcp with MSS option", withOptions(tcp(), []byte{wire.TCPOptMSS, 4, 5, 0xb4, wire.TCPOptNop, wire.TCPOptNop, wire.TCPOptNop, wire.TCPOptEnd}), true, 0},
		{"tcp malformed option", withOptions(tcp(), []byte{wire.TCPOptMSS, 9, 5, 0xb4}), false, 0},
		{"tcp total length < 40", totalLen(tcp(), 30), false, 0},
		{"udp", udp(), true, 4},
		{"udp total length < 28", totalLen(udp(), 24), false, 0},
		{"udp total length < 20", totalLen(udp(), 12), false, 0},
		{"udp length past datagram", udpLen(udp(), 13), false, 0},
		{"udp length < header", udpLen(udp(), 7), false, 0},
		{"total length past frame", totalLen(udp(), 200), false, 0},
	} {
		p, ok := parseFrame(tc.frame)
		if ok != tc.ok {
			t.Errorf("%s: parseFrame ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if ok && p.payLen != tc.payLen {
			t.Errorf("%s: payload length %d, want %d", tc.name, p.payLen, tc.payLen)
		}
	}
}
