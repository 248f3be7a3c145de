package tracker

import (
	"encoding/binary"
	"net"
	"testing"
	"time"
)

// FuzzParseAnnounceResponse asserts the reply parser never panics on
// either "peers" form and that every peer it hands the client can be
// dialled: a real address, a port in 1..65535, a non-negative interval.
func FuzzParseAnnounceResponse(f *testing.F) {
	f.Add([]byte("d8:intervali60e5:peers12:\x7f\x00\x00\x01\x1a\xe1\x0a\x00\x00\x02\x00\x00e"))
	f.Add([]byte("d8:intervali60e5:peersld2:ip9:127.0.0.14:porti6881eed2:ip3:::14:porti1eeee"))
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := parseAnnounceResponse(body)
		if err != nil {
			return
		}
		if resp.Interval < 0 || resp.MinInterval < 0 {
			t.Fatalf("interval %v, min interval %v", resp.Interval, resp.MinInterval)
		}
		diallable(t, resp.Peers)
	})
}

func diallable(t *testing.T, peers []PeerInfo) {
	for _, p := range peers {
		if p.IP == nil || p.Port < 1 || p.Port > 65535 {
			t.Fatalf("undiallable peer %+v", p)
		}
	}
}

// FuzzUDPPacket feeds one datagram to both ends of BEP 15. The server
// must never panic, and what it answers fits one datagram and echoes the
// request's transaction id; the client's reply decoder must never panic,
// and an announce reply it accepts lists only diallable peers.
func FuzzUDPPacket(f *testing.F) {
	f.Add(append(binary.BigEndian.AppendUint64(nil, udpProtocolMagic), 0, 0, 0, 0, 0, 0, 0, 9))
	f.Add(udpError(9, "no"))
	f.Fuzz(func(t *testing.T, pkt []byte) {
		// A swarm larger than one datagram of peers (the corpus entry
		// announce-numwant-max asks it for everyone under connection id 1),
		// filled in directly: a real announce sorts the swarm each time.
		state := NewServer()
		swarm := make(map[[20]byte]*peerEntry)
		for i := 0; i < maxUDPPeers+50; i++ {
			p := PeerInfo{ID: id(byte(i)), IP: net.IPv4(10, 0, byte(i>>8), byte(i)).To4(), Port: 7000 + i}
			binary.BigEndian.PutUint16(p.ID[:], uint16(i))
			swarm[p.ID] = &peerEntry{info: p, left: 1, lastSeen: time.Now()}
		}
		state.swarms[id(0xF0)] = swarm
		srv := &UDPServer{state: state, nextID: 1, issued: make(map[uint64]time.Time)}
		srv.issueConnectionID()
		if resp := srv.handlePacket(pkt, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}); resp != nil {
			if len(resp) > udpMaxPacket || len(resp) < 8 {
				t.Fatalf("%d-byte reply", len(resp))
			}
			if got, want := binary.BigEndian.Uint32(resp[4:8]), binary.BigEndian.Uint32(pkt[12:16]); got != want {
				t.Fatalf("reply transaction %d, request %d", got, want)
			}
		}

		var txn uint32 // the packet's own, so the decode gets past the id check
		if len(pkt) >= 8 {
			txn = binary.BigEndian.Uint32(pkt[4:8])
		}
		_, _, _ = decodeUDPReply(pkt, udpActionConnect, txn)
		if _, resp, err := decodeUDPReply(pkt, udpActionAnnounce, txn); err == nil {
			diallable(t, resp.Peers)
		}
	})
}
