package gateway

import (
	"strings"
	"testing"

	"repro/internal/radio"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// FuzzGatewayFrame throws arbitrary datagrams at the ingress path of a
// framed and an unframed binding. Whatever arrives off a real socket —
// truncated headers, wrong magic, oversized payloads, bytes that happen
// to look like the server↔client wire protocol — must never panic,
// leak a pooled buffer, or leave the link's ledger open.
func FuzzGatewayFrame(f *testing.F) {
	// Seeds: valid gateway frames at interesting sizes, plus encodings
	// from the wire protocol's own fuzz corpus — the framings most
	// likely to half-parse — plus raw garbage.
	f.Add(AppendHeader(nil, 2, 1, 7))
	f.Add(append(AppendHeader(nil, 2, 1, 7), []byte("payload")...))
	f.Add(append(AppendHeader(nil, 0xFFFFFFFF, 0xFFFF, 0xFFFF), make([]byte, 128)...))
	f.Add(AppendHeader(nil, 2, 1, 7)[:HeaderSize-1])
	for _, m := range []wire.Msg{
		&wire.Hello{Ver: wire.Version, ProposedID: 7},
		&wire.Data{Pkt: wire.Packet{Src: 1, Dst: 2, Channel: 3, Flow: 4, Seq: 5, Stamp: vclock.FromMillis(6), Payload: []byte("wire-payload")}},
		&wire.SyncReq{TC1: 42},
		&wire.Bye{Reason: "seed"},
	} {
		frame, err := wire.AppendFrame(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0x50, 0x4D})
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))

	consume := func(p wire.Packet) error { p.Buf.Free(); return nil }
	g := newGateway(Config{
		Bindings: []Binding{
			{Listen: "x", Node: 1, Channel: 1, Dst: 2, Framed: true},
			{Listen: "y", Node: 2, Channel: 1, Dst: 1},
		},
		MaxDatagram: 4096,
	})
	for _, l := range g.links {
		l.send = consume
	}
	f.Cleanup(g.Close)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, l := range g.links {
			l.ingest(data, testFrom)
		}
		if live := g.pool.Live(); live != 0 {
			t.Fatalf("%d pooled buffers leaked on input %x", live, data)
		}
		for i, st := range g.Stats() {
			if st.Ingress != st.Accepted+st.Shed+st.BadFrame+st.Oversize+st.SendErr {
				t.Fatalf("link %d ledger open after input %x: %+v", i, data, st)
			}
		}
	})
}

// FuzzParsePortMap feeds arbitrary config text to the port-map parser,
// which reads an operator-supplied file. It must never panic, and a
// map it accepts must be usable: non-empty, every binding with a listen
// address and a unicast node id, and no node bound twice.
func FuzzParsePortMap(f *testing.F) {
	f.Add("# real socket 9000 speaks as VMN 1, unicast to VMN 3 on channel 1\n" +
		"map listen=127.0.0.1:9000 node=1 ch=1 dst=3 flow=7\n" +
		"# egress side: framed, fixed return address\n" +
		"map listen=127.0.0.1:9001 node=3 ch=1 peer=127.0.0.1:9100 framed\n")
	f.Add("map listen=:0 node=2 ch=65535 dst=broadcast\n\n  \t\n")
	f.Add("map listen=:0 node=4294967295 ch=1\nmap listen=:0 node=1 ch=1 framed=yes")
	f.Add("route listen=:0\nmap node=1 node=2")
	f.Fuzz(func(t *testing.T, src string) {
		bs, err := ParsePortMap(strings.NewReader(src))
		if err != nil {
			return
		}
		if len(bs) == 0 {
			t.Fatal("accepted a map with no bindings")
		}
		nodes := map[radio.NodeID]bool{}
		for _, b := range bs {
			if b.Listen == "" {
				t.Fatalf("binding %+v has no listen address", b)
			}
			if b.Node == radio.Broadcast {
				t.Fatalf("binding %+v embodies the broadcast id", b)
			}
			if nodes[b.Node] {
				t.Fatalf("node %v bound twice", b.Node)
			}
			nodes[b.Node] = true
		}
	})
}
