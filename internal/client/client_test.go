package client

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/metainfo"
	"repro/internal/trace"
	"repro/internal/tracker"
)

func emptySet(n int) *bitset.Set { return bitset.New(n) }

func fullSet(n int) *bitset.Set {
	s := bitset.New(n)
	s.Fill()
	return s
}

func mustAdd(t *testing.T, s *bitset.Set, i int) {
	t.Helper()
	if err := s.Add(i); err != nil {
		t.Fatal(err)
	}
}

// testSwarm spins up a tracker, one seed, and n leechers over loopback.
type testSwarm struct {
	ts      *httptest.Server
	torrent *metainfo.Torrent
	content []byte
	seed    *Client
	clients []*Client
}

func newTestSwarm(t *testing.T, nLeechers int, mutate func(i int, cfg *Config)) *testSwarm {
	t.Helper()
	srv := tracker.NewServer()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	content := testContent(64<<10, 42) // 64 KiB
	info, err := metainfo.FromContent("swarm.bin", content, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := metainfo.Marshal(ts.URL+"/announce", info)
	if err != nil {
		t.Fatal(err)
	}
	torrent, err := metainfo.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}

	sw := &testSwarm{ts: ts, torrent: torrent, content: content}

	seedStore, err := NewSeededStorage(torrent.Info, content)
	if err != nil {
		t.Fatal(err)
	}
	seedCfg := Config{
		Torrent: torrent, Storage: seedStore, Name: "seed",
		BlockSize: 1 << 10, MaxUploads: 8,
		ChokeInterval:    50 * time.Millisecond,
		SampleInterval:   50 * time.Millisecond,
		AnnounceInterval: 200 * time.Millisecond,
		Seed1:            1000, Seed2: 1,
	}
	sw.seed, err = New(seedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.seed.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sw.seed.Stop)

	for i := 0; i < nLeechers; i++ {
		store, err := NewStorage(torrent.Info)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Torrent: torrent, Storage: store, Name: "leech",
			BlockSize: 1 << 10, MaxUploads: 4,
			ChokeInterval:    50 * time.Millisecond,
			SampleInterval:   50 * time.Millisecond,
			AnnounceInterval: 200 * time.Millisecond,
			Seed1:            uint64(2000 + i), Seed2: uint64(i),
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Stop)
		sw.clients = append(sw.clients, cl)
	}
	return sw
}

func waitAll(t *testing.T, clients []*Client, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for i, cl := range clients {
		select {
		case <-cl.Done():
		case <-deadline:
			t.Fatalf("leecher %d did not complete within %v (has %d pieces)",
				i, timeout, cl.storage.NumHave())
		}
	}
}

func TestSingleLeecherDownloadsFromSeed(t *testing.T) {
	sw := newTestSwarm(t, 1, nil)
	waitAll(t, sw.clients, 30*time.Second)
	got, err := sw.clients[0].storage.Content()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, sw.content) {
		t.Fatal("downloaded content differs from the original")
	}
}

func TestMultiPeerSwarmCompletesAndTrades(t *testing.T) {
	sw := newTestSwarm(t, 4, nil)
	waitAll(t, sw.clients, 60*time.Second)
	for i, cl := range sw.clients {
		got, err := cl.storage.Content()
		if err != nil {
			t.Fatalf("leecher %d: %v", i, err)
		}
		if !bytes.Equal(got, sw.content) {
			t.Fatalf("leecher %d content mismatch", i)
		}
	}
	// At least one leecher must have uploaded to another peer (the swarm
	// actually swarmed rather than star-downloading from the seed).
	traded := false
	for _, cl := range sw.clients {
		done := make(chan int64, 1)
		cl.cmds <- func() {
			var up int64
			for pc := range cl.conns {
				up += pc.totalUp
			}
			done <- up
		}
		if <-done > 0 {
			traded = true
			break
		}
	}
	if !traded {
		t.Log("warning: no leecher-to-leecher uploads observed in this run")
	}
}

func TestClientTraceIsValidAndComplete(t *testing.T) {
	sw := newTestSwarm(t, 2, nil)
	waitAll(t, sw.clients, 60*time.Second)
	// Allow one more sample period so the final state is recorded.
	time.Sleep(120 * time.Millisecond)
	for i, cl := range sw.clients {
		d := cl.Trace()
		if err := d.Validate(); err != nil {
			t.Fatalf("leecher %d trace invalid: %v", i, err)
		}
		if len(d.Samples) < 2 {
			t.Fatalf("leecher %d trace too short", i)
		}
		if !d.Complete() {
			t.Errorf("leecher %d trace does not reach completion", i)
		}
		rep, err := trace.Analyze(d)
		if err != nil {
			t.Fatalf("leecher %d analyze: %v", i, err)
		}
		if !rep.Completed {
			t.Errorf("leecher %d report not completed", i)
		}
	}
}

func TestStrictTFTAvoidsSeeds(t *testing.T) {
	// The paper's measurement methodology (§4.2) forbids downloading from
	// seeds. Setup: a seed, a "helper" leecher pre-loaded with every piece
	// except piece 0, and a strict empty leecher. Both leechers avoid
	// seeds, so the helper can never finish (piece 0 lives only at the
	// seed) and permanently serves as a non-seed partner. The strict
	// leecher must acquire exactly the N-1 pieces available outside seeds
	// — and nothing from the seed itself. This also exhibits the paper's
	// last-piece problem under strict seed avoidance.
	content := testContent(64<<10, 42) // matches newTestSwarm's content
	sw := newTestSwarm(t, 2, func(i int, cfg *Config) {
		cfg.AvoidSeeds = true
		cfg.Name = "strict-tft"
		if i == 0 { // helper: pre-load all but piece 0
			info := cfg.Torrent.Info
			for j := 1; j < info.NumPieces(); j++ {
				lo := int64(j) * info.PieceLength
				hi := lo + info.PieceSize(j)
				if _, err := cfg.Storage.AddBlock(j, 0, int(info.PieceSize(j)), content[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	strict := sw.clients[1]
	want := sw.torrent.Info.NumPieces() - 1
	deadline := time.Now().Add(60 * time.Second)
	for strict.storage.NumHave() < want {
		if time.Now().After(deadline) {
			t.Fatalf("strict leecher stuck at %d/%d pieces", strict.storage.NumHave(), want)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Give any in-flight deliveries a moment, then confirm the seed-held
	// piece was never fetched and no bytes came from seed-like peers.
	time.Sleep(300 * time.Millisecond)
	if strict.storage.Have().Has(0) {
		t.Error("strict leecher obtained the seed-only piece")
	}
	done := make(chan int64, 1)
	strict.cmds <- func() {
		var fromSeeds int64
		for pc := range strict.conns {
			if pc.seedLike() && pc.totalDown > 0 {
				fromSeeds += pc.totalDown
			}
		}
		done <- fromSeeds
	}
	select {
	case v := <-done:
		if v > 0 {
			t.Errorf("strict leecher downloaded %d bytes from seed-like peers", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event loop unresponsive")
	}
}

func TestShakeSmoke(t *testing.T) {
	sw := newTestSwarm(t, 2, func(i int, cfg *Config) {
		cfg.ShakeThreshold = 0.5
	})
	waitAll(t, sw.clients, 90*time.Second)
	for i, cl := range sw.clients {
		done := make(chan bool, 1)
		cl.cmds <- func() { done <- cl.shaken }
		if !<-done {
			t.Errorf("leecher %d never shook", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config must be rejected")
	}
	content := testContent(4<<10, 9)
	info := testInfo(t, content, 1<<10)
	store, err := NewStorage(info)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := metainfo.Marshal("http://127.0.0.1:1/announce", info)
	if err != nil {
		t.Fatal(err)
	}
	torrent, err := metainfo.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Torrent: torrent, Storage: store, ShakeThreshold: 7}); err == nil {
		t.Error("bad shake threshold must be rejected")
	}
	cl, err := New(Config{Torrent: torrent, Storage: store})
	if err != nil {
		t.Fatal(err)
	}
	if cl.peerID == ([20]byte{}) {
		t.Error("peer id must be derived")
	}
	cl.Stop() // Stop before Start must not panic
}

func TestRandomFirstStrategySwarm(t *testing.T) {
	sw := newTestSwarm(t, 1, func(i int, cfg *Config) {
		cfg.Strategy = PickRandomFirst
	})
	waitAll(t, sw.clients, 60*time.Second)
	got, err := sw.clients[0].storage.Content()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, sw.content) {
		t.Fatal("content mismatch")
	}
}

func TestRateLimitedSwarm(t *testing.T) {
	srv := tracker.NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	content := testContent(64<<10, 77)
	info, err := metainfo.FromContent("rl.bin", content, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := metainfo.Marshal(ts.URL+"/announce", info)
	if err != nil {
		t.Fatal(err)
	}
	torrent, err := metainfo.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	seedStore, err := NewSeededStorage(torrent.Info, content)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := New(Config{
		Torrent: torrent, Storage: seedStore, Name: "seed",
		BlockSize: 1 << 10, MaxUploads: 4,
		UploadRate:       128 << 10, // 128 KiB/s
		ChokeInterval:    50 * time.Millisecond,
		SampleInterval:   20 * time.Millisecond,
		AnnounceInterval: 200 * time.Millisecond,
		Seed1:            1,
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
		SampleInterval:   20 * time.Millisecond,
		AnnounceInterval: 200 * time.Millisecond,
		Seed1:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := leech.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer leech.Stop()

	start := time.Now()
	select {
	case <-leech.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("rate-limited download stuck at %d pieces", leech.storage.NumHave())
	}
	elapsed := time.Since(start)
	// 64 KiB at 128 KiB/s (burst allowance of one second of tokens means
	// half the content can go out instantly): at least ~200 ms.
	if elapsed < 200*time.Millisecond {
		t.Errorf("download finished in %v; rate limit seems inactive", elapsed)
	}
	got, err := leech.storage.Content()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch under rate limiting")
	}
	// The trace must now contain a meaningful number of samples.
	d := leech.Trace()
	if len(d.Samples) < 5 {
		t.Errorf("only %d samples despite throttled download", len(d.Samples))
	}
}

func TestClientOverUDPTracker(t *testing.T) {
	// Same end-to-end download as the HTTP-tracker tests, but announced
	// over the BEP 15 UDP protocol.
	state := tracker.NewServer()
	udpSrv, err := tracker.NewUDPServer(state, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = udpSrv.Close() })

	content := testContent(32<<10, 555)
	info, err := metainfo.FromContent("udp.bin", content, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := metainfo.Marshal("udp://"+udpSrv.Addr().String(), info)
	if err != nil {
		t.Fatal(err)
	}
	torrent, err := metainfo.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}

	seedStore, err := NewSeededStorage(torrent.Info, content)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := New(Config{
		Torrent: torrent, Storage: seedStore, Name: "seed",
		BlockSize: 1 << 10, MaxUploads: 4,
		ChokeInterval:    50 * time.Millisecond,
		SampleInterval:   50 * time.Millisecond,
		AnnounceInterval: 150 * time.Millisecond,
		Seed1:            3001,
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
		Torrent: torrent, Storage: store, Name: "leech",
		BlockSize: 1 << 10, MaxUploads: 4,
		ChokeInterval:    50 * time.Millisecond,
		SampleInterval:   50 * time.Millisecond,
		AnnounceInterval: 150 * time.Millisecond,
		Seed1:            3002,
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
		t.Fatalf("UDP-tracked download stuck at %d pieces", leech.storage.NumHave())
	}
	got, err := leech.storage.Content()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch over UDP tracker")
	}
}
