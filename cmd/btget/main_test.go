package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/metainfo"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/tracker"
)

// startEnv brings up a tracker and a seeding client for one torrent.
func startEnv(t *testing.T) (torrentPath string, content []byte) {
	t.Helper()
	srv := tracker.NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	t.Cleanup(func() { _ = httpSrv.Close() })
	announce := "http://" + ln.Addr().String() + "/announce"

	r := stats.NewRNG(123, 321)
	content = make([]byte, 48<<10)
	for i := range content {
		content[i] = byte(r.IntN(256))
	}
	info, err := metainfo.FromContent("env.bin", content, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := metainfo.Marshal(announce, info)
	if err != nil {
		t.Fatal(err)
	}
	torrentPath = filepath.Join(t.TempDir(), "env.torrent")
	if err := os.WriteFile(torrentPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	torrent, err := metainfo.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	store, err := client.NewSeededStorage(torrent.Info, content)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := client.New(client.Config{
		Torrent: torrent, Storage: store, Name: "env-seed",
		BlockSize: 2 << 10, MaxUploads: 4,
		ChokeInterval:    50 * time.Millisecond,
		SampleInterval:   50 * time.Millisecond,
		AnnounceInterval: 150 * time.Millisecond,
		Seed1:            4001,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(seed.Stop)
	return torrentPath, content
}

func TestRunDownloadsAndResumes(t *testing.T) {
	torrentPath, content := startEnv(t)
	out := filepath.Join(t.TempDir(), "got.bin")
	traceOut := filepath.Join(t.TempDir(), "got.jsonl")
	var sb strings.Builder
	err := run(&sb, obs.Nop(), options{
		torrentPath: torrentPath,
		out:         out,
		maxPeers:    8,
		uploads:     4,
		timeout:     60 * time.Second,
		traceOut:    traceOut,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("downloaded content mismatch")
	}
	if _, err := os.Stat(traceOut); err != nil {
		t.Fatal("trace file missing")
	}
	if !strings.Contains(sb.String(), "complete:") {
		t.Error("missing completion line")
	}

	// Resume: re-running against the complete file finds all pieces.
	var sb2 strings.Builder
	err = run(&sb2, obs.Nop(), options{
		torrentPath: torrentPath,
		out:         out,
		maxPeers:    8,
		uploads:     4,
		timeout:     30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), "6/6 pieces already on disk") {
		t.Errorf("resume did not verify existing pieces: %q", sb2.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, obs.Nop(), options{}); err == nil {
		t.Error("missing torrent path must error")
	}
	if err := run(&sb, obs.Nop(), options{torrentPath: "/no/such.torrent"}); err == nil {
		t.Error("missing torrent file must error")
	}

	// The default output path is the torrent's name: a name that climbs
	// out of the working directory is refused before anything is created.
	root := t.TempDir()
	cwd := filepath.Join(root, "a", "b")
	if err := os.MkdirAll(cwd, 0o755); err != nil {
		t.Fatal(err)
	}
	hostile := filepath.Join(cwd, "evil.torrent")
	if err := os.WriteFile(hostile, []byte("d8:announce27:http://127.0.0.1:1/announce4:infod6:lengthi1e4:name10:../../evil12:piece lengthi1e6:pieces20:aaaaaaaaaaaaaaaaaaaaee"), 0o644); err != nil {
		t.Fatal(err)
	}
	old, _ := os.Getwd()
	if err := os.Chdir(cwd); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old) //nolint:errcheck
	if err := run(&sb, obs.Nop(), options{torrentPath: hostile, timeout: 200 * time.Millisecond}); err == nil {
		t.Error("a torrent named ../../evil must error")
	}
	if _, err := os.Stat(filepath.Join(root, "evil")); err == nil {
		t.Error("btget created ../../evil outside its working directory")
	}
}
