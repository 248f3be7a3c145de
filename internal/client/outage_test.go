package client

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/bencode"
	"repro/internal/metainfo"
	"repro/internal/obs"
	"repro/internal/tracker"
	"repro/internal/wire"
)

// TestClientSurvivesTrackerOutage runs a rate-capped download against a
// tracker that rejects N consecutive announces from the leecher and then
// recovers. Through the outage the established connection keeps trading;
// the re-announce delay doubles per failure, is capped at 8x and falls
// back to the configured interval on the first success, timer included;
// client.dl.announce_failures ends at exactly N; and a peer that joined
// the swarm during the outage is dialled once the tracker answers again.
func TestClientSurvivesTrackerOutage(t *testing.T) {
	const (
		outage   = 5 // N: enough to reach the 8x cap and stay on it
		interval = 40 * time.Millisecond
	)
	// What the tracker saw at each announce from the leecher, taken on the
	// client's own event loop while the request is held: a new announce is
	// only sent once the previous result is booked, so request j of the
	// outage must find j-1 failures.
	type sighting struct {
		at       time.Time
		failures int
		delay    time.Duration
		pieces   int
	}
	var (
		mu        sync.Mutex
		leech     *Client
		remaining = -1 // announces still to fail; -1 until the outage starts
		seen      []sighting
		firstFail = make(chan struct{})
		recovered = make(chan struct{})
		cadence   = make(chan struct{}) // the announce after the recovery
	)
	srv := tracker.NewServer()
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		cl, left := leech, remaining
		mu.Unlock()
		if left < 0 || r.URL.Query().Get("peer_id") != string(cl.peerID[:]) {
			inner.ServeHTTP(w, r)
			return
		}
		got := make(chan sighting, 1)
		select {
		case cl.cmds <- func() {
			got <- sighting{time.Now(), cl.announce.failures, cl.reannounceDelay(), cl.storage.NumHave()}
		}:
		case <-cl.stopCh:
			return
		}
		var s sighting
		select {
		case s = <-got:
		case <-cl.stopCh:
			return // stopped with the query still queued
		}
		mu.Lock()
		seen = append(seen, s)
		n := len(seen)
		if left > 0 {
			remaining--
		}
		mu.Unlock()
		switch {
		case n == 1:
			close(firstFail)
		case n == outage+1:
			close(recovered)
		case n == outage+2:
			close(cadence)
		}
		if left == 0 {
			inner.ServeHTTP(w, r)
			return
		}
		// A tracker-reported failure is not retried inside one announce,
		// so one rejected request is one failed announce.
		body, err := bencode.Encode(map[string]any{"failure reason": "tracker is down"})
		if err != nil {
			t.Error(err)
		}
		_, _ = w.Write(body)
	}))
	t.Cleanup(ts.Close)

	content := testContent(64<<10, 77) // 16 pieces of 4 KiB
	info, err := metainfo.FromContent("outage.bin", content, 4<<10)
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
		BlockSize: 1 << 10, MaxUploads: 8,
		ChokeInterval:    50 * time.Millisecond,
		SampleInterval:   50 * time.Millisecond,
		AnnounceInterval: time.Hour, // announces once, so only the leecher dials the late peer
		UploadRate:       12 << 10,  // ~5 s for 64 KiB: the outage ends mid-download
		Seed1:            91,
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
	cl, err := New(Config{
		Torrent: torrent, Storage: store, Name: "dl",
		BlockSize: 1 << 10, MaxUploads: 4,
		ChokeInterval:    50 * time.Millisecond,
		SampleInterval:   50 * time.Millisecond,
		AnnounceInterval: interval,
		Seed1:            92,
		Metrics:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)

	// The outage starts once the leecher is trading with the seed.
	deadline := time.Now().Add(20 * time.Second)
	for store.NumHave() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("leecher never started trading")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	leech, remaining = cl, outage
	mu.Unlock()

	// A peer joins while the leecher cannot hear about it.
	late, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = late.Close() })
	dialled := make(chan struct{})
	go func() {
		for {
			c, err := late.Accept()
			if err != nil {
				return
			}
			hs, err := wire.ReadHandshake(c)
			_ = c.Close()
			if err == nil && hs.PeerID == cl.peerID {
				close(dialled)
				return
			}
		}
	}()
	wait := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	wait(firstFail, "the first rejected announce")
	announceFakeID(t, ts.URL+"/announce", torrent, late.Addr().(*net.TCPAddr).Port, "-LT0001-latelatelate")
	wait(recovered, "the first announce after the outage")

	mu.Lock()
	ladder := append([]sighting(nil), seen[:outage+1]...)
	mu.Unlock()
	var stretched time.Duration
	for j, s := range ladder {
		want := interval << min(j, 3)
		if s.failures != j || s.delay != want {
			t.Errorf("announce %d of the outage: %d failures, delay %v; want %d, %v",
				j+1, s.failures, s.delay, j, want)
		}
		if j < outage {
			stretched += want // the timer armed at request j+1 runs this long
		}
	}
	// Timers never fire early, so the outage lasted at least the sum of
	// the stretched delays (23 intervals, not 5); the slack only covers
	// how long the two end requests took to reach the tracker.
	if got := ladder[outage].at.Sub(ladder[0].at); got < stretched*3/4 {
		t.Errorf("outage spanned %v, want >= %v: the stretched delay is not what arms the timer", got, stretched)
	}
	if ladder[outage].pieces <= ladder[0].pieces {
		t.Errorf("pieces %d -> %d across the outage: the connection stopped trading",
			ladder[0].pieces, ladder[outage].pieces)
	}
	if n := reg.Counter("client.dl.disconnects").Value(); n != 0 {
		t.Errorf("%d disconnects during the outage, want 0", n)
	}

	// The timer armed when the recovering announce went out still held the
	// 8x delay; the success re-arms it, so the next announce is one base
	// interval away (the bound splits 1x from 8x).
	wait(cadence, "the announce after the recovery")
	mu.Lock()
	gap := seen[outage+1].at.Sub(seen[outage].at)
	mu.Unlock()
	if gap > 5*interval {
		t.Errorf("first re-announce after recovery came %v later, want about %v", gap, interval)
	}

	wait(dialled, "the leecher to dial the peer that joined during the outage")
	after := make(chan sighting, 1)
	cl.cmds <- func() { after <- sighting{failures: cl.announce.failures, delay: cl.reannounceDelay()} }
	if s := <-after; s.failures != 0 || s.delay != interval {
		t.Errorf("after recovery: %d failures, delay %v; want 0, %v", s.failures, s.delay, interval)
	}
	if n := reg.Counter("client.dl.announce_failures").Value(); n != outage {
		t.Errorf("client.dl.announce_failures = %d, want %d", n, outage)
	}
}

// TestClientHonoursMinInterval runs a client whose own cadence is 20 ms
// against a stub tracker that asks for a 1 s "min interval": every
// periodic announce must reach the tracker at least that long after the
// one before it. The floor holds from the first reply on, so the started
// announce's reply re-arms a timer armed before it was known.
func TestClientHonoursMinInterval(t *testing.T) {
	const minInterval = time.Second
	type announce struct {
		at    time.Time
		event string
	}
	var (
		mu   sync.Mutex
		seen []announce
		done = make(chan struct{})
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, announce{time.Now(), r.URL.Query().Get("event")})
		if len(seen) == 4 { // started, then three periodic announces
			close(done)
		}
		mu.Unlock()
		body, err := bencode.Encode(map[string]any{
			"interval": int64(120), "min interval": int64(minInterval / time.Second), "peers": "",
		})
		if err != nil {
			t.Error(err)
		}
		_, _ = w.Write(body)
	}))
	t.Cleanup(ts.Close)

	info, err := metainfo.FromContent("min.bin", testContent(16<<10, 5), 4<<10)
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
	store, err := NewStorage(torrent.Info)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{Torrent: torrent, Storage: store, Name: "min", AnnounceInterval: 20 * time.Millisecond, Seed1: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for three periodic announces")
	}
	cl.Stop()

	mu.Lock()
	defer mu.Unlock()
	if seen[0].event != "started" {
		t.Fatalf("first announce has event %q, want started", seen[0].event)
	}
	for i := 1; i < 4; i++ {
		if gap := seen[i].at.Sub(seen[i-1].at); seen[i].event != "" || gap < minInterval {
			t.Errorf("announce %d (event %q) came %v after the one before, want a periodic one at least %v later",
				i, seen[i].event, gap, minInterval)
		}
	}
}
