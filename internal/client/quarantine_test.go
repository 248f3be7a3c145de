package client

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/faults"
	"repro/internal/metainfo"
	"repro/internal/obs"
	"repro/internal/wire"
)

// corruptingPeer serves correct content through a faults.CorruptConn
// wrapper: its handshake and control frames pass untouched while every
// piece frame arrives with a flipped byte and fails verification.
func newCorruptingPeer(t *testing.T, torrent *metainfo.Torrent, content []byte) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close() //nolint:errcheck
				c = faults.CorruptConn(c, faults.DefaultCorruptThreshold)
				var id [20]byte
				copy(id[:], "-EV0002-corruptcorru")
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
					off := int64(idx)*torrent.Info.PieceLength + int64(begin)
					block := content[off : off+int64(length)]
					if err := wire.Write(c, wire.Piece(idx, begin, block)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln
}

// TestQuarantineBansCorruptingPeer runs a swarm with one honest seed and
// one peer whose connection corrupts every piece frame. The victim must
// charge the corrupter with offenses, ban it at the threshold, and still
// finish the download intact from the seed.
func TestQuarantineBansCorruptingPeer(t *testing.T) {
	announce, torrent, content, _ := buildSwarmEnv(t)

	evil := newCorruptingPeer(t, torrent, content)
	announceFakeID(t, announce, torrent, evil.Addr().(*net.TCPAddr).Port, "-EV0002-corruptcorru")

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
		Seed1:            71,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(seed.Stop)

	reg := obs.NewRegistry()
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
		Seed1:            72,
		Metrics:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := leech.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leech.Stop)

	select {
	case <-leech.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("download stuck at %d pieces despite quarantine",
			leech.storage.NumHave())
	}
	got, err := leech.storage.Content()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content corrupted")
	}
	if n := reg.Counter("client.victim.offenses").Value(); n < 2 {
		t.Errorf("offenses = %d, want >= 2", n)
	}
	if n := reg.Counter("client.victim.bans").Value(); n < 1 {
		t.Errorf("bans = %d, want >= 1", n)
	}
}
