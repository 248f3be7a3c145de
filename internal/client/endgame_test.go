package client

import (
	"bytes"
	"context"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/metainfo"
	"repro/internal/stats"
	"repro/internal/tracker"
	"repro/internal/wire"
)

// stallingPeer is a hostile swarm member: it handshakes, advertises a
// full bitfield, unchokes, and then never serves a single block.
type stallingPeer struct {
	ln   net.Listener
	done chan struct{}
}

func newStallingPeer(t *testing.T, infoHash [20]byte, numPieces int) *stallingPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sp := &stallingPeer{ln: ln, done: make(chan struct{})}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close() //nolint:errcheck
				var id [20]byte
				copy(id[:], "-ST0001-stallstallst")
				if _, err := performHandshake(c, infoHash, id, true, 0); err != nil {
					return
				}
				full := bitset.New(numPieces)
				full.Fill()
				if err := wire.Write(c, wire.Bitfield(full)); err != nil {
					return
				}
				if err := wire.Write(c, &wire.Message{ID: wire.MsgUnchoke}); err != nil {
					return
				}
				// Swallow everything; never answer a request.
				for {
					if _, err := wire.Read(c); err != nil {
						return
					}
					select {
					case <-sp.done:
						return
					default:
					}
				}
			}(conn)
		}
	}()
	return sp
}

func (sp *stallingPeer) port() int { return sp.ln.Addr().(*net.TCPAddr).Port }

func (sp *stallingPeer) close() {
	close(sp.done)
	_ = sp.ln.Close()
}

// buildSwarmEnv creates a tracker + torrent shared by the endgame tests.
func buildSwarmEnv(t *testing.T) (announce string, torrent *metainfo.Torrent, content []byte, srv *tracker.Server) {
	t.Helper()
	srv = tracker.NewServer()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	content = testContent(32<<10, 321) // 8 pieces of 4 KiB
	info, err := metainfo.FromContent("endgame.bin", content, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := metainfo.Marshal(ts.URL+"/announce", info)
	if err != nil {
		t.Fatal(err)
	}
	torrent, err = metainfo.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	return ts.URL + "/announce", torrent, content, srv
}

// announceFake registers the stalling peer with the tracker so the client
// discovers it.
func announceFake(t *testing.T, announce string, torrent *metainfo.Torrent, port int) {
	t.Helper()
	cl := &tracker.Client{}
	var id [20]byte
	copy(id[:], "-ST0001-stallstallst")
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

func TestEndgameBeatsStallingPeer(t *testing.T) {
	announce, torrent, content, _ := buildSwarmEnv(t)

	stall := newStallingPeer(t, torrent.Hash, torrent.Info.NumPieces())
	defer stall.close()
	announceFake(t, announce, torrent, stall.port())

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
		Seed1:            51,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer seed.Stop()

	store, err := NewStorage(torrent.Info)
	if err != nil {
		t.Fatal(err)
	}
	leech, err := New(Config{
		Torrent: torrent, Storage: store, Name: "leech",
		BlockSize: 1 << 10, MaxUploads: 4,
		ChokeInterval:    50 * time.Millisecond,
		SampleInterval:   50 * time.Millisecond,
		AnnounceInterval: 150 * time.Millisecond,
		// The request timeout is deliberately huge: only endgame mode can
		// rescue the piece assigned to the stalling peer.
		RequestTimeout: time.Hour,
		Seed1:          52,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := leech.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer leech.Stop()

	select {
	case <-leech.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("endgame did not rescue the download (%d/%d pieces)",
			leech.storage.NumHave(), torrent.Info.NumPieces())
	}
	got, err := leech.storage.Content()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch")
	}
}

func TestRequestTimeoutReapsStalledPeer(t *testing.T) {
	announce, torrent, content, _ := buildSwarmEnv(t)

	stall := newStallingPeer(t, torrent.Hash, torrent.Info.NumPieces())
	defer stall.close()
	announceFake(t, announce, torrent, stall.port())

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
		Seed1:            61,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer seed.Stop()

	store, err := NewStorage(torrent.Info)
	if err != nil {
		t.Fatal(err)
	}
	leech, err := New(Config{
		Torrent: torrent, Storage: store, Name: "leech",
		BlockSize: 1 << 10, MaxUploads: 4,
		ChokeInterval:    50 * time.Millisecond,
		SampleInterval:   50 * time.Millisecond,
		AnnounceInterval: 150 * time.Millisecond,
		// Endgame off: only the request timeout can release the piece
		// held hostage by the stalling peer.
		DisableEndgame: true,
		RequestTimeout: 300 * time.Millisecond,
		Seed1:          62,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := leech.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer leech.Stop()

	select {
	case <-leech.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("timeout did not rescue the download (%d/%d pieces)",
			leech.storage.NumHave(), torrent.Info.NumPieces())
	}
	got, err := leech.storage.Content()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch")
	}
}

func TestPickDuplicate(t *testing.T) {
	p := newPicker(PickRarestFirst, 6, stats.NewRNG(1, 2))
	remote := fullSet(6)
	have := emptySet(6)
	p.addBitfield(remote)
	// Nothing assigned yet: no duplicate available.
	if got := p.pickDuplicate(remote, have); got != -1 {
		t.Errorf("duplicate before assignment = %d", got)
	}
	first := p.pick(remote, have)
	if first < 0 {
		t.Fatal("pick failed")
	}
	dup := p.pickDuplicate(remote, have)
	if dup != first {
		t.Errorf("duplicate = %d, want the assigned piece %d", dup, first)
	}
	// Already-held assigned pieces do not qualify.
	mustAdd(t, have, first)
	if got := p.pickDuplicate(remote, have); got != -1 {
		t.Errorf("duplicate of held piece = %d", got)
	}
}
