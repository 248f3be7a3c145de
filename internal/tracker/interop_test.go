package tracker

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bencode"
)

// TestAnnounceInterop pins the two classic tracker interop traps. A reply
// may carry "peers" as the compact string or as BEP 3's original list of
// {ip, port, peer id} dictionaries, and both must parse to the same peers;
// any other shape is an error. And a binary info_hash full of characters
// the query syntax reserves must reach tracker.Server as the same 20
// bytes: percent-encoded once, not twice.
func TestAnnounceInterop(t *testing.T) {
	ctx := context.Background()
	peerID := strings.Repeat("p", 20)
	replies := map[string]any{
		"compact": "\x7f\x00\x00\x01\x1a\xe1\x0a\x00\x00\x02\x1a\xe2",
		"dicts": []any{
			map[string]any{"ip": "127.0.0.1", "port": int64(6881), "peer id": peerID},
			map[string]any{"ip": "10.0.0.2", "port": int64(6882)}, // no_peer_id
		},
		"ipv6":     []any{map[string]any{"ip": "::1", "port": int64(6881)}},
		"integer":  int64(7),
		"hostname": []any{map[string]any{"ip": "peer.example", "port": int64(6881)}},
		"port":     []any{map[string]any{"ip": "127.0.0.1", "port": int64(70000)}},
		"entry":    []any{"127.0.0.1:6881"},
		"shortid":  []any{map[string]any{"ip": "127.0.0.1", "port": int64(6881), "peer id": "short"}},
	}
	var echoed []string // the trackerid each /extras announce carried
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reply := map[string]any{"interval": int64(60)}
		switch form := strings.TrimPrefix(r.URL.Path, "/"); form {
		case "missing":
		case "extras": // the three BEP 3 keys beside the peer list
			echoed = append(echoed, r.URL.Query().Get("trackerid"))
			reply["peers"], reply["min interval"] = "", int64(30)
			reply["warning message"], reply["tracker id"] = "slow down", "T1"
		case "negative":
			reply["peers"], reply["interval"] = "", int64(-1)
		default:
			reply["peers"] = replies[form]
		}
		body, err := bencode.Encode(reply)
		if err != nil {
			t.Error(err)
		}
		_, _ = w.Write(body)
	}))
	defer ts.Close()
	cl := &Client{HTTP: ts.Client()}
	announce := func(form string) (*AnnounceResponse, error) {
		return cl.Announce(ctx, AnnounceRequest{
			AnnounceURL: ts.URL + "/" + form,
			InfoHash:    id(1), PeerID: id(2), Port: 6999,
		})
	}
	for _, form := range []string{"compact", "dicts"} {
		resp, err := announce(form)
		if err != nil {
			t.Fatalf("%s peers: %v", form, err)
		}
		if len(resp.Peers) != 2 ||
			resp.Peers[0].IP.String() != "127.0.0.1" || resp.Peers[0].Port != 6881 ||
			resp.Peers[1].IP.String() != "10.0.0.2" || resp.Peers[1].Port != 6882 ||
			len(resp.Peers[0].IP) != 4 {
			t.Errorf("%s peers = %+v", form, resp.Peers)
		}
		if form == "dicts" && (string(resp.Peers[0].ID[:]) != peerID || resp.Peers[1].ID != [20]byte{}) {
			t.Errorf("peer ids = %q, %q", resp.Peers[0].ID, resp.Peers[1].ID)
		}
	}
	if resp, err := announce("ipv6"); err != nil || len(resp.Peers) != 1 || resp.Peers[0].IP.String() != "::1" {
		t.Errorf("ipv6 dict peer: %+v, %v", resp, err)
	}
	for _, form := range []string{"integer", "hostname", "port", "entry", "shortid", "missing", "negative"} {
		if resp, err := announce(form); err == nil {
			t.Errorf("%s peers accepted: %+v", form, resp.Peers)
		}
	}
	// A tracker id is remembered per announce URL and sent back from the
	// next announce on; the warning and min interval reach the caller.
	for i := 0; i < 2; i++ {
		resp, err := announce("extras")
		if err != nil || resp.Warning != "slow down" || resp.MinInterval != 30*time.Second || resp.TrackerID != "T1" {
			t.Fatalf("extras: %+v, %v", resp, err)
		}
	}
	if len(echoed) != 2 || echoed[0] != "" || echoed[1] != "T1" {
		t.Errorf("trackerid echoed as %q, want [\"\" \"T1\"]", echoed)
	}

	// Every byte below is special somewhere between url.Values.Encode and
	// the server's query parser; a double encode would register "%2525…".
	var hash [20]byte
	copy(hash[:], "%&+ \x00%25=#?/;\xff\x80%%&&++")
	srv := NewServer()
	real := httptest.NewServer(srv.Handler())
	defer real.Close()
	cl = &Client{HTTP: real.Client()}
	for i, port := range []int{7001, 7002} {
		resp, err := cl.Announce(ctx, AnnounceRequest{
			AnnounceURL: real.URL + "/announce",
			InfoHash:    hash, PeerID: id(byte(10 + i)), Port: port, Left: int64(i),
			Event: EventStarted,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Peers) != i {
			t.Errorf("announce %d under the binary hash saw %d peers, want %d", i, len(resp.Peers), i)
		}
	}
	if seeders, leechers := srv.Counts(hash); seeders != 1 || leechers != 1 {
		t.Errorf("swarm %q holds %d/%d, want 1/1", hash, seeders, leechers)
	}
	if _, swarms := srv.population(); swarms != 1 {
		t.Errorf("%d swarms registered, want exactly the one hash", swarms)
	}
}
