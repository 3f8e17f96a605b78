package dataplane

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/filter"
	"repro/internal/wire"
)

// FuzzParseFrame drives arbitrary frames at a VIP through Ingress and
// holds the plane to wire.ParseMeta: it never panics and never writes
// the received frame; a non-ARP frame ParseMeta rejects passes untouched
// and takes no flow; and every frame the plane forwards is one
// ParseMeta accepts, with the input's protocol, datagram length and
// payload bytes, so NAT rewrites stay inside the headers.
func FuzzParseFrame(f *testing.F) {
	f.Add(tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPSyn|wire.TCPAck, 7, 9, []byte("hello")))
	f.Add(udpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, []byte("ping"), true))
	f.Fuzz(func(t *testing.T, frame []byte) {
		h := newHarness(t, nil)
		h.vip(t)
		in := append([]byte(nil), frame...)
		out, verdict := h.p.Ingress(frame)
		if !bytes.Equal(frame, in) {
			t.Fatalf("Ingress wrote the received frame")
		}
		if len(frame) >= wire.EthHeaderLen && binary.BigEndian.Uint16(frame[12:14]) == wire.EtherTypeARP {
			return
		}
		m, ok := wire.ParseMeta(frame)
		sent := h.takeSent()
		if !ok {
			if verdict != filter.VerdictPass || out != nil || h.p.FlowCount() != 0 || len(sent) != 0 {
				t.Fatalf("rejected frame: verdict %v rewritten %v flows %d sent %d, want an untouched pass",
					verdict, out != nil, h.p.FlowCount(), len(sent))
			}
			return
		}
		if out != nil {
			sent = append(sent, out)
		}
		for _, o := range sent {
			om, ok := wire.ParseMeta(o)
			if !ok {
				t.Fatalf("forwarded frame does not parse")
			}
			if om.IP.Proto != m.IP.Proto || om.End != m.End || om.PayloadAt() != m.PayloadAt() {
				t.Fatalf("forwarded proto %d end %d payload at %d; received proto %d end %d payload at %d",
					om.IP.Proto, om.End, om.PayloadAt(), m.IP.Proto, m.End, m.PayloadAt())
			}
			if !bytes.Equal(o[om.PayloadAt():om.End], frame[m.PayloadAt():m.End]) {
				t.Fatalf("forwarded payload differs from the received one")
			}
		}
	})
}
