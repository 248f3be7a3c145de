package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/metainfo"
	"repro/internal/tracker"
	"repro/internal/wire"
)

// hostilePeer connects peers that misbehave in a scripted way after the
// handshake.
type hostilePeer struct {
	ln   net.Listener
	done chan struct{}
}

// serveHostile runs script for every inbound connection after a valid
// handshake + full bitfield + unchoke.
func newHostilePeer(t *testing.T, torrent *metainfo.Torrent, script func(c net.Conn, info metainfo.Info)) *hostilePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hp := &hostilePeer{ln: ln, done: make(chan struct{})}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close() //nolint:errcheck
				var id [20]byte
				copy(id[:], "-EV0001-evilevilevil")
				if _, err := performHandshake(c, torrent.Hash, id, true, 0); err != nil {
					return
				}
				full := bitset.New(torrent.Info.NumPieces())
				full.Fill()
				if err := wire.Write(c, wire.Bitfield(full)); err != nil {
					return
				}
				if err := wire.Write(c, &wire.Message{ID: wire.MsgUnchoke}); err != nil {
					return
				}
				script(c, torrent.Info)
			}(conn)
		}
	}()
	t.Cleanup(func() {
		close(hp.done)
		_ = ln.Close()
	})
	return hp
}

func (hp *hostilePeer) port() int { return hp.ln.Addr().(*net.TCPAddr).Port }

// hostileSwarm builds tracker + seed + one hostile peer + one leecher.
func hostileSwarm(t *testing.T, script func(c net.Conn, info metainfo.Info)) (*Client, []byte) {
	t.Helper()
	announce, torrent, content, _ := buildSwarmEnv(t)

	hp := newHostilePeer(t, torrent, script)
	announceFakeID(t, announce, torrent, hp.port(), "-EV0001-evilevilevil")

	seedStore, err := NewSeededStorage(torrent.Info, content)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := New(Config{
		Torrent: torrent, Storage: seedStore, Name: "seed",
		BlockSize: 1 << 10, MaxUploads: 8,
		ChokeInterval:    50 * time.Millisecond,
		SampleInterval:   50 * time.Millisecond,
		AnnounceInterval: 150 * time.Millisecond,
		Seed1:            91,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(seed.Stop)

	store, err := NewStorage(torrent.Info)
	if err != nil {
		t.Fatal(err)
	}
	leech, err := New(Config{
		Torrent: torrent, Storage: store, Name: "victim",
		BlockSize: 1 << 10, MaxUploads: 4,
		ChokeInterval:    50 * time.Millisecond,
		SampleInterval:   50 * time.Millisecond,
		AnnounceInterval: 150 * time.Millisecond,
		RequestTimeout:   500 * time.Millisecond,
		Seed1:            92,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := leech.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leech.Stop)
	return leech, content
}

func announceFakeID(t *testing.T, announce string, torrent *metainfo.Torrent, port int, idStr string) {
	t.Helper()
	cl := &tracker.Client{}
	var id [20]byte
	copy(id[:], idStr)
	if _, err := cl.Announce(context.Background(), tracker.AnnounceRequest{
		AnnounceURL: announce,
		InfoHash:    torrent.Hash,
		PeerID:      id,
		Port:        port,
		Left:        0,
	}); err != nil {
		t.Fatal(err)
	}
}

func waitComplete(t *testing.T, leech *Client, content []byte) {
	t.Helper()
	select {
	case <-leech.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("download stuck at %d pieces despite adversary handling",
			leech.storage.NumHave())
	}
	got, err := leech.storage.Content()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content corrupted by adversary")
	}
}

func TestClientSurvivesGarbageStream(t *testing.T) {
	leech, content := hostileSwarm(t, func(c net.Conn, _ metainfo.Info) {
		// A framed message with an absurd declared length, then junk.
		_, _ = c.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xAA, 0xBB})
	})
	waitComplete(t, leech, content)
}

func TestClientSurvivesCorruptPieces(t *testing.T) {
	leech, content := hostileSwarm(t, func(c net.Conn, info metainfo.Info) {
		// Answer every request with garbage of the right shape: the piece
		// assembles, fails SHA-1, and must be refetched elsewhere.
		for {
			m, err := wire.Read(c)
			if err != nil {
				return
			}
			if m == nil || m.ID != wire.MsgRequest {
				continue
			}
			idx, begin, length, err := wire.ParseRequest(m)
			if err != nil {
				return
			}
			if err := wire.Write(c, wire.Piece(idx, begin, make([]byte, length))); err != nil {
				return
			}
		}
	})
	waitComplete(t, leech, content)
}

func TestClientSurvivesBadHaveIndices(t *testing.T) {
	leech, content := hostileSwarm(t, func(c net.Conn, _ metainfo.Info) {
		// HAVE with an out-of-range index must get the peer dropped.
		p := make([]byte, 4)
		binary.BigEndian.PutUint32(p, 1<<30)
		_ = wire.Write(c, &wire.Message{ID: wire.MsgHave, Payload: p})
	})
	waitComplete(t, leech, content)
}

func TestClientSurvivesWrongSizedBitfield(t *testing.T) {
	leech, content := hostileSwarm(t, func(c net.Conn, _ metainfo.Info) {
		// A second bitfield with the wrong length.
		_ = wire.Write(c, &wire.Message{ID: wire.MsgBitfield, Payload: []byte{0xFF}})
	})
	waitComplete(t, leech, content)
}

func TestClientSurvivesUnsolicitedPieces(t *testing.T) {
	leech, content := hostileSwarm(t, func(c net.Conn, info metainfo.Info) {
		// Push unrequested garbage blocks at a misaligned offset: the
		// storage rejects them and the client drops the peer.
		_ = wire.Write(c, wire.Piece(0, 13, []byte("unsolicited")))
	})
	waitComplete(t, leech, content)
}

func TestClientSurvivesImmediateDisconnects(t *testing.T) {
	leech, content := hostileSwarm(t, func(c net.Conn, _ metainfo.Info) {
		// Slam the connection shut right after the preamble, repeatedly
		// (the client may redial on later announces).
	})
	waitComplete(t, leech, content)
}
