package client

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestFileStorageBasicLifecycle(t *testing.T) {
	content := testContent(3000, 71)
	info := testInfo(t, content, 1024)
	path := filepath.Join(t.TempDir(), "dl.bin")
	fs, err := NewFileStorage(info, path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	if fs.Complete() || fs.NumHave() != 0 || fs.Left() != 3000 {
		t.Fatal("fresh file storage must be empty")
	}
	// Feed all pieces.
	for i := 0; i < info.NumPieces(); i++ {
		lo := int64(i) * info.PieceLength
		hi := lo + info.PieceSize(i)
		done, err := fs.AddBlock(i, 0, int(info.PieceSize(i)), content[lo:hi])
		if err != nil || !done {
			t.Fatalf("piece %d: done=%v err=%v", i, done, err)
		}
	}
	if !fs.Complete() || fs.BytesVerified() != 3000 {
		t.Fatal("storage must be complete")
	}
	// The backing file holds the exact content.
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, content) {
		t.Fatal("file content mismatch")
	}
	// Block reads come from disk.
	blk, err := fs.ReadBlock(1, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blk, content[1124:1324]) {
		t.Fatal("ReadBlock mismatch")
	}
}

func TestFileStorageResume(t *testing.T) {
	content := testContent(4096, 72)
	info := testInfo(t, content, 1024)
	path := filepath.Join(t.TempDir(), "resume.bin")

	// First session: download half the pieces.
	fs, err := NewFileStorage(info, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		lo := int64(i) * info.PieceLength
		if _, err := fs.AddBlock(i, 0, 1024, content[lo:lo+1024]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Second session: the two verified pieces must be rediscovered, the
	// unwritten (zero-filled) ones must not.
	fs2, err := NewFileStorage(info, path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close() //nolint:errcheck
	if fs2.NumHave() != 2 || !fs2.Have().Has(0) || !fs2.Have().Has(1) {
		t.Fatalf("resume found %d pieces, want 2", fs2.NumHave())
	}
	if fs2.Have().Has(2) || fs2.Have().Has(3) {
		t.Fatal("unwritten pieces must not verify")
	}
	// Finish the download.
	for i := 2; i < 4; i++ {
		lo := int64(i) * info.PieceLength
		done, err := fs2.AddBlock(i, 0, 1024, content[lo:lo+1024])
		if err != nil {
			t.Fatal(err)
		}
		_ = done
	}
	if !fs2.Complete() {
		t.Fatal("resumed download must complete")
	}
}

func TestFileStorageVerifyFailure(t *testing.T) {
	content := testContent(2048, 73)
	info := testInfo(t, content, 1024)
	fs, err := NewFileStorage(info, filepath.Join(t.TempDir(), "v.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	if _, err := fs.AddBlock(0, 0, 1024, make([]byte, 1024)); !errors.Is(err, ErrVerify) {
		t.Fatalf("corrupt piece: %v", err)
	}
	// Refetch works.
	done, err := fs.AddBlock(0, 0, 1024, content[:1024])
	if err != nil || !done {
		t.Fatalf("refetch: done=%v err=%v", done, err)
	}
	// Bad geometry is rejected.
	if _, err := fs.AddBlock(9, 0, 1024, content[:1024]); !errors.Is(err, ErrBadBlock) {
		t.Errorf("out-of-range piece: %v", err)
	}
	if _, err := fs.ReadBlock(1, 0, 10); err == nil {
		t.Error("reading unheld piece must fail")
	}
	if _, err := fs.ReadBlock(0, 2000, 10); !errors.Is(err, ErrBadBlock) {
		t.Errorf("out-of-bounds read: %v", err)
	}
}

func TestFileStorageClientDownload(t *testing.T) {
	// End-to-end: a leecher backed by a file store downloads from a seed,
	// and the on-disk file matches.
	sw := newTestSwarm(t, 0, nil)
	path := filepath.Join(t.TempDir(), "e2e.bin")
	fs, err := NewFileStorage(sw.torrent.Info, path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	cl, err := New(Config{
		Torrent: sw.torrent, Storage: fs, Name: "file-leech",
		BlockSize: 1 << 10, MaxUploads: 4,
		ChokeInterval:    50 * time.Millisecond,
		SampleInterval:   50 * time.Millisecond,
		AnnounceInterval: 200 * time.Millisecond,
		Seed1:            777,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	select {
	case <-cl.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("file-backed download stuck at %d pieces", fs.NumHave())
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, sw.content) {
		t.Fatal("downloaded file mismatch")
	}
}

func TestFileStorageBadPath(t *testing.T) {
	content := testContent(1024, 74)
	info := testInfo(t, content, 1024)
	if _, err := NewFileStorage(info, filepath.Join(t.TempDir(), "no", "such", "dir", "f.bin")); err == nil {
		t.Error("unreachable path must fail")
	}
	bad := info
	bad.PieceLength = 0
	if _, err := NewFileStorage(bad, filepath.Join(t.TempDir(), "f.bin")); err == nil {
		t.Error("invalid info must fail")
	}
}

func TestChurnResumeAcrossClientRestarts(t *testing.T) {
	// A leecher is stopped mid-download and replaced by a fresh client
	// over the same backing file: resume verification must carry the
	// partial progress forward and the second client must finish.
	sw := newTestSwarm(t, 0, nil)
	// Throttle the seed so the first client cannot finish instantly.
	sw.seed.Stop()
	seedStore, err := NewSeededStorage(sw.torrent.Info, sw.content)
	if err != nil {
		t.Fatal(err)
	}
	slowSeed, err := New(Config{
		Torrent: sw.torrent, Storage: seedStore, Name: "slow-seed",
		BlockSize: 1 << 10, MaxUploads: 4,
		UploadRate:       48 << 10, // ~1.3 s for 64 KiB
		ChokeInterval:    50 * time.Millisecond,
		SampleInterval:   50 * time.Millisecond,
		AnnounceInterval: 150 * time.Millisecond,
		Seed1:            5001,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := slowSeed.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(slowSeed.Stop)

	path := filepath.Join(t.TempDir(), "churn.bin")
	start := func(seed uint64) *Client {
		fs, err := NewFileStorage(sw.torrent.Info, path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = fs.Close() })
		cl, err := New(Config{
			Torrent: sw.torrent, Storage: fs, Name: "churner",
			BlockSize: 1 << 10, MaxUploads: 4,
			ChokeInterval:    50 * time.Millisecond,
			SampleInterval:   50 * time.Millisecond,
			AnnounceInterval: 150 * time.Millisecond,
			Seed1:            seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		return cl
	}

	first := start(5002)
	// Wait until some (but not all) pieces landed, then kill the client.
	deadline := time.Now().Add(30 * time.Second)
	for first.storage.NumHave() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first client made no progress")
		}
		time.Sleep(20 * time.Millisecond)
	}
	progress := first.storage.NumHave()
	first.Stop()
	if progress == sw.torrent.Info.NumPieces() {
		t.Skip("first client finished before the churn point; nothing to resume")
	}

	second := start(5003)
	t.Cleanup(second.Stop)
	if second.storage.NumHave() < progress {
		t.Errorf("resume lost pieces: %d < %d", second.storage.NumHave(), progress)
	}
	select {
	case <-second.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("resumed client stuck at %d pieces", second.storage.NumHave())
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, sw.content) {
		t.Fatal("churned download content mismatch")
	}
}
