package tracker

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

func newUDPPair(t *testing.T) (*Server, *UDPServer) {
	t.Helper()
	state := NewServer()
	srv, err := NewUDPServer(state, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return state, srv
}

func TestUDPAnnounceLifecycle(t *testing.T) {
	state, srv := newUDPPair(t)
	addr := srv.Addr().String()
	hash := id(0xE1)

	// Seeder joins.
	resp, err := announceUDP(context.Background(), addr, AnnounceRequest{
		InfoHash: hash, PeerID: id(1), Port: 6881, Left: 0, Event: EventStarted,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Peers) != 0 || resp.Seeders != 1 || resp.Leechers != 0 {
		t.Errorf("first announce: %+v", resp)
	}
	if resp.Interval != 120*time.Second {
		t.Errorf("interval = %v", resp.Interval)
	}

	// Leecher joins and sees the seeder.
	resp, err = announceUDP(context.Background(), addr, AnnounceRequest{
		InfoHash: hash, PeerID: id(2), Port: 6882, Left: 500, Event: EventStarted,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Peers) != 1 || resp.Peers[0].Port != 6881 {
		t.Fatalf("peers = %+v", resp.Peers)
	}
	if resp.Seeders != 1 || resp.Leechers != 1 {
		t.Errorf("counts %d/%d", resp.Seeders, resp.Leechers)
	}

	// The UDP announce shares state with the HTTP tracker.
	seeders, leechers := state.Counts(hash)
	if seeders != 1 || leechers != 1 {
		t.Errorf("shared state %d/%d", seeders, leechers)
	}

	// Stop removes.
	if _, err := announceUDP(context.Background(), addr, AnnounceRequest{
		InfoHash: hash, PeerID: id(2), Port: 6882, Left: 500, Event: EventStopped,
	}); err != nil {
		t.Fatal(err)
	}
	if _, leechers := state.Counts(hash); leechers != 0 {
		t.Errorf("leecher not removed: %d", leechers)
	}
}

func TestUDPRejectsBadMagic(t *testing.T) {
	_, srv := newUDPPair(t)
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck
	pkt := make([]byte, 16)
	binary.BigEndian.PutUint64(pkt[0:8], 0xDEADBEEF) // wrong magic
	binary.BigEndian.PutUint32(pkt[8:12], udpActionConnect)
	binary.BigEndian.PutUint32(pkt[12:16], 7)
	if _, err := conn.Write(pkt); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 256)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint32(buf[0:4]) != udpActionError {
		t.Errorf("expected error action, got %x", buf[:n])
	}
}

func TestUDPRejectsUnknownConnectionID(t *testing.T) {
	_, srv := newUDPPair(t)
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck
	pkt := make([]byte, 98)
	binary.BigEndian.PutUint64(pkt[0:8], 424242) // never issued
	binary.BigEndian.PutUint32(pkt[8:12], udpActionAnnounce)
	binary.BigEndian.PutUint32(pkt[12:16], 9)
	binary.BigEndian.PutUint16(pkt[96:98], 6881)
	if _, err := conn.Write(pkt); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 256)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint32(buf[0:4]) != udpActionError {
		t.Error("expected error for unknown connection id")
	}
}

func TestUDPAnnounceErrors(t *testing.T) {
	_, srv := newUDPPair(t)
	addr := srv.Addr().String()
	// Port 0 is rejected by the server.
	if _, err := announceUDP(context.Background(), addr, AnnounceRequest{
		InfoHash: id(0xE2), PeerID: id(3), Port: 0, Left: 5,
	}); !errors.Is(err, ErrUDPTracker) {
		t.Errorf("bad port: %v", err)
	}
	// Unreachable address times out or errors.
	if _, err := announceUDP(context.Background(), "127.0.0.1:1", AnnounceRequest{
		InfoHash: id(0xE2), PeerID: id(3), Port: 6881, Left: 5,
	}); err == nil {
		t.Error("unreachable tracker must error")
	}
	// A tracker that refuses the connect in fewer than 16 bytes is still
	// quoted, not reported as a short response.
	if _, _, err := decodeUDPReply(udpError(9, "banned"), udpActionConnect, 9); !errors.Is(err, ErrUDPTracker) || !strings.Contains(err.Error(), "banned") {
		t.Errorf("short error reply to connect: %v, want the tracker's message", err)
	}
}

func TestUDPConnectionIDExpiry(t *testing.T) {
	state := NewServer()
	srv, err := NewUDPServer(state, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck
	id := srv.issueConnectionID()
	if !srv.validConnectionID(id) {
		t.Fatal("fresh id must validate")
	}
	srv.mu.Lock()
	srv.issued[id] = time.Now().Add(-3 * connectionIDTTL)
	srv.mu.Unlock()
	if srv.validConnectionID(id) {
		t.Error("expired id must be rejected")
	}
}

func TestUDPEventCodes(t *testing.T) {
	cases := map[Event]uint32{
		EventNone: 0, EventCompleted: 1, EventStarted: 2, EventStopped: 3,
	}
	for e, want := range cases {
		if got := udpEventCode(e); got != want {
			t.Errorf("event %q -> %d, want %d", e, got, want)
		}
	}
}
