package stack

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/wire"
)

// This file implements session migration, the heart of the paper's
// protocol decomposition: once the operating-system server establishes a
// connection, its entire protocol state — the TCP state variables plus
// any unacknowledged or undelivered data — is packaged up and moved into
// the application's protocol library, which manages the session until an
// exceptional operation (close, fork, process death) migrates it back.

// ReasmSegState is one out-of-order segment captured by a migration.
type ReasmSegState struct {
	Seq  uint32
	Data []byte
	Fin  bool
}

// TCPSessionState is the serializable protocol state of one TCP session:
// what actually travels between the OS server and a protocol library.
type TCPSessionState struct {
	Local, Remote Addr

	State int // tcpState

	SndUna, SndNxt, SndMax uint32
	SndWnd, SndUp          uint32
	SndWl1, SndWl2, ISS    uint32
	RcvNxt, RcvUp          uint32
	IRS, RcvAdv            uint32
	Cwnd, Ssthresh         uint32
	SRTT, RTTVar           float64
	MSS                    int
	FinSent                bool
	FinSeq                 uint32
	SawFin                 bool
	AckPending             bool // an ACK was owed (delayed or immediate) at export

	SndQ  []byte // bytes in the send buffer (unacked + unsent)
	RcvQ  []byte // bytes received but not yet read by the application
	OOB   []byte
	Reasm []ReasmSegState

	SndBufSize, RcvBufSize int
	NoDelay                bool
	KeepAlive              bool
	RdShut, WrShut         bool
}

// WireSize estimates the bytes moved by the migration RPC, used to charge
// its cost.
func (ss *TCPSessionState) WireSize() int {
	n := 120 + len(ss.SndQ) + len(ss.RcvQ) + len(ss.OOB)
	for _, r := range ss.Reasm {
		n += 8 + len(r.Data)
	}
	return n
}

// ExportTCPSession snapshots a connection's state and detaches it from
// this stack: the socket stops demultiplexing here, its timers go dead,
// and the caller is expected to hand the snapshot to another stack. The
// socket's port reservation is NOT released — in the decomposed
// architecture the namespace entry belongs to the OS server for the
// session's whole lifetime.
func (st *Stack) ExportTCPSession(t *sim.Proc, s *Socket) (*TCPSessionState, error) {
	st.lock(t)
	defer st.unlock()
	tp := s.tcb
	if tp == nil || tp.state < tcpEstablished {
		return nil, fmt.Errorf("stack: cannot migrate %s session", TCPStateOf(s))
	}
	ss := &TCPSessionState{
		Local: s.local, Remote: s.remote,
		State:  int(tp.state),
		SndUna: tp.sndUna, SndNxt: tp.sndNxt, SndMax: tp.sndMax,
		SndWnd: tp.sndWnd, SndUp: tp.sndUp,
		SndWl1: tp.sndWl1, SndWl2: tp.sndWl2, ISS: tp.iss,
		RcvNxt: tp.rcvNxt, RcvUp: tp.rcvUp,
		IRS: tp.irs, RcvAdv: tp.rcvAdv,
		Cwnd: tp.cwnd, Ssthresh: tp.ssthresh,
		SRTT: tp.srtt, RTTVar: tp.rttvar,
		MSS:     tp.mss,
		FinSent: tp.finSent, FinSeq: tp.finSeq, SawFin: tp.sawFin,
		AckPending: tp.delAck || tp.ackNow,
		SndQ:       s.snd.data.Bytes(),
		RcvQ:       s.rcv.data.Bytes(),
		OOB:        append([]byte(nil), s.oob...),
		SndBufSize: s.sndbufSize, RcvBufSize: s.rcvbufSize,
		NoDelay: s.noDelay, KeepAlive: s.keepAlive,
		RdShut: s.rdShut, WrShut: s.wrShut,
	}
	for _, r := range tp.reasm {
		ss.Reasm = append(ss.Reasm, ReasmSegState{Seq: r.seq, Data: r.data.Bytes(), Fin: r.fin})
	}
	// Detach without releasing the port.
	s.portReserved = false
	s.migratedElsewhere = true
	tp.setState(tcpClosed)
	for i := range tp.timers {
		tp.timers[i] = 0
	}
	st.deregister(s)
	return ss, nil
}

// ImportTCPSession installs a migrated session into this stack, returning
// the socket that now manages it. Packet-filter redirection is the
// caller's responsibility.
func (st *Stack) ImportTCPSession(t *sim.Proc, ss *TCPSessionState) *Socket {
	st.lock(t)
	defer st.unlock()
	s := st.NewSocket(wire.ProtoTCP)
	s.local, s.remote = ss.Local, ss.Remote
	s.sndbufSize, s.rcvbufSize = ss.SndBufSize, ss.RcvBufSize
	s.snd.hiwat, s.rcv.hiwat = ss.SndBufSize, ss.RcvBufSize
	s.noDelay = ss.NoDelay
	s.keepAlive = ss.KeepAlive
	s.rdShut, s.wrShut = ss.RdShut, ss.WrShut
	s.oob = append([]byte(nil), ss.OOB...)
	if len(ss.SndQ) > 0 {
		s.snd.appendBytes(ss.SndQ)
	}
	if len(ss.RcvQ) > 0 {
		s.rcv.appendBytes(ss.RcvQ)
	}

	tp := newTCPCB(st, s)
	s.tcb = tp
	tp.setState(tcpState(ss.State))
	tp.sndUna, tp.sndNxt, tp.sndMax = ss.SndUna, ss.SndNxt, ss.SndMax
	tp.sndWnd, tp.sndUp = ss.SndWnd, ss.SndUp
	tp.sndWl1, tp.sndWl2, tp.iss = ss.SndWl1, ss.SndWl2, ss.ISS
	tp.rcvNxt, tp.rcvUp = ss.RcvNxt, ss.RcvUp
	tp.irs, tp.rcvAdv = ss.IRS, ss.RcvAdv
	tp.cwnd, tp.ssthresh = ss.Cwnd, ss.Ssthresh
	tp.srtt, tp.rttvar = ss.SRTT, ss.RTTVar
	tp.mss = ss.MSS
	tp.finSent, tp.finSeq, tp.sawFin = ss.FinSent, ss.FinSeq, ss.SawFin
	for _, r := range ss.Reasm {
		st.insertReasm(tp, r.Seq, r.Data, r.Fin)
	}

	st.conns[tuple{wire.ProtoTCP, s.local, s.remote}] = s

	// Re-arm the retransmit timer if data is in flight, and continue the
	// close handshake if one was interrupted mid-migration. An ACK the
	// exporting stack still owed the peer (its delayed-ACK timer died
	// with the export) is sent immediately — otherwise the peer's Nagle
	// algorithm deadlocks against our silence until its RTO fires.
	if tp.sndMax != tp.sndUna {
		tp.timers[timerRexmt] = tp.rexmtTicks()
	}
	tp.ackNow = ss.AckPending
	if tp.state == tcpTimeWait {
		tp.canonTimeWait()
	}
	st.tcpOutput(t, tp)
	return s
}

// AdoptUDPSession creates a UDP socket whose endpoint naming was done by
// the OS server (the library side of a migrated UDP session). No state
// variables exist for UDP; only the binding moves.
func (st *Stack) AdoptUDPSession(local, remote Addr) *Socket {
	s := st.NewSocket(wire.ProtoUDP)
	s.local = local
	if remote.IsZero() {
		st.binds[tuple{wire.ProtoUDP, s.local, Addr{}}] = s
	} else {
		s.remote = remote
		st.conns[tuple{wire.ProtoUDP, s.local, s.remote}] = s
	}
	return s
}

// DropUDPSession detaches a UDP socket without releasing its
// server-owned port.
func (st *Stack) DropUDPSession(s *Socket) {
	s.portReserved = false
	st.deregister(s)
}
