package client

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/metainfo"
	"repro/internal/stats"
)

func testContent(n int, seed uint64) []byte {
	r := stats.NewRNG(seed, seed^99)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.IntN(256))
	}
	return out
}

func testInfo(t *testing.T, content []byte, pieceLen int64) metainfo.Info {
	t.Helper()
	info, err := metainfo.FromContent("t.bin", content, pieceLen)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// backings are the two stores every storage case below runs over.
var backings = []struct {
	name string
	open func(t *testing.T, info metainfo.Info) *Storage
}{
	{"memory", func(t *testing.T, info metainfo.Info) *Storage {
		s, err := NewStorage(info)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"file", func(t *testing.T, info metainfo.Info) *Storage {
		s, err := NewFileStorage(info, filepath.Join(t.TempDir(), "store.bin"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}},
}

// overBackings runs fn as one subtest per backing on a fresh empty store.
func overBackings(t *testing.T, info metainfo.Info, fn func(t *testing.T, s *Storage)) {
	for _, b := range backings {
		t.Run(b.name, func(t *testing.T) { fn(t, b.open(t, info)) })
	}
}

func TestStorageBlockAssembly(t *testing.T) {
	content := testContent(1000, 1)
	overBackings(t, testInfo(t, content, 256), func(t *testing.T, s *Storage) {
		if s.Complete() || s.NumHave() != 0 || s.Left() != 1000 {
			t.Fatal("fresh storage must be empty")
		}

		// Feed piece 0 in two blocks, out of order.
		const blockSize = 128
		done, err := s.AddBlock(0, 128, blockSize, content[128:256])
		if err != nil || done {
			t.Fatalf("first block: done=%v err=%v", done, err)
		}
		done, err = s.AddBlock(0, 0, blockSize, content[0:128])
		if err != nil || !done {
			t.Fatalf("second block: done=%v err=%v", done, err)
		}
		if !s.Have().Has(0) || s.NumHave() != 1 || s.BytesVerified() != 256 {
			t.Error("piece 0 not committed")
		}

		// Reading back a block of the verified piece.
		blk, err := s.ReadBlock(0, 100, 50)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blk, content[100:150]) {
			t.Error("read-back mismatch")
		}
		// Mutating the returned block must not affect storage.
		blk[0] ^= 0xFF
		again, err := s.ReadBlock(0, 100, 1)
		if err != nil || again[0] != content[100] {
			t.Error("ReadBlock must return a copy")
		}
	})
}

func TestStorageShortFinalPiece(t *testing.T) {
	content := testContent(600, 2) // pieces: 256, 256, 88
	overBackings(t, testInfo(t, content, 256), func(t *testing.T, s *Storage) {
		done, err := s.AddBlock(2, 0, 128, content[512:600])
		if err != nil || !done {
			t.Fatalf("short final piece: done=%v err=%v", done, err)
		}
	})
}

func TestStorageVerifyFailure(t *testing.T) {
	content := testContent(512, 3)
	overBackings(t, testInfo(t, content, 256), func(t *testing.T, s *Storage) {
		garbage := make([]byte, 256)
		if _, err := s.AddBlock(0, 0, 256, garbage); !errors.Is(err, ErrVerify) {
			t.Fatalf("corrupt piece: %v", err)
		}
		// The partial buffer must have been discarded: the true piece can
		// still be downloaded.
		done, err := s.AddBlock(0, 0, 256, content[:256])
		if err != nil || !done {
			t.Fatalf("refetch after corruption: done=%v err=%v", done, err)
		}
	})
}

func TestStorageBadBlocks(t *testing.T) {
	content := testContent(512, 4)
	overBackings(t, testInfo(t, content, 256), func(t *testing.T, s *Storage) {
		cases := []struct {
			idx, begin, bs int
			data           []byte
		}{
			{5, 0, 128, make([]byte, 128)}, // piece out of range
			{0, 64, 128, make([]byte, 64)}, // begin not block-aligned
			{0, 0, 128, make([]byte, 300)}, // overflows the piece
			{0, 0, 128, nil},               // empty block
		}
		for i, c := range cases {
			if _, err := s.AddBlock(c.idx, c.begin, c.bs, c.data); !errors.Is(err, ErrBadBlock) {
				t.Errorf("case %d: %v", i, err)
			}
		}
		if _, err := s.ReadBlock(0, 0, 10); err == nil {
			t.Error("reading an unheld piece must fail")
		}
		// Inconsistent block size for the same piece.
		if _, err := s.AddBlock(1, 0, 128, make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddBlock(1, 64, 64, make([]byte, 64)); !errors.Is(err, ErrBadBlock) {
			t.Errorf("block size change: %v", err)
		}
	})
}

func TestStorageDuplicateBlockIgnored(t *testing.T) {
	content := testContent(256, 5)
	overBackings(t, testInfo(t, content, 256), func(t *testing.T, s *Storage) {
		if _, err := s.AddBlock(0, 0, 256, content); err != nil {
			t.Fatal(err)
		}
		done, err := s.AddBlock(0, 0, 256, content)
		if err != nil || done {
			t.Errorf("duplicate block: done=%v err=%v", done, err)
		}
	})
}

// errClass folds an AddBlock error into what callers branch on.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrVerify):
		return "verify"
	case errors.Is(err, ErrBadBlock):
		return "badblock"
	}
	return "other: " + err.Error()
}

// TestStorageBackingsAgree feeds one seeded block sequence — every block
// shuffled in with duplicates, out-of-bounds writes, and a corrupt piece
// ahead of its refetch — to a memory- and a file-backed store, and
// requires the same (completed, error class) from every call and the same
// final bytes.
func TestStorageBackingsAgree(t *testing.T) {
	const pieceLen, blockSize = 512, 128
	content := testContent(5000, 7) // 10 pieces, the last one 392 bytes
	info := testInfo(t, content, pieceLen)
	type call struct {
		idx, begin int
		data       []byte
	}
	var calls []call
	for off := 0; off < len(content); off += blockSize {
		end := min(off+blockSize, len(content))
		c := call{off / pieceLen, off % pieceLen, content[off:end]}
		calls = append(calls, c, c) // every block is delivered twice
	}
	rng := stats.NewRNG(7, 11)
	for i := len(calls) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		calls[i], calls[j] = calls[j], calls[i]
	}
	// Piece 3 arrives corrupt first (its true blocks follow in the
	// shuffle and must still commit it); then the malformed writes.
	corrupt := make([]byte, blockSize)
	var hostile []call
	for begin := 0; begin < pieceLen; begin += blockSize {
		hostile = append(hostile, call{3, begin, corrupt})
	}
	hostile = append(hostile,
		call{info.NumPieces(), 0, corrupt},   // piece out of range
		call{-1, 0, corrupt},                 // negative piece
		call{0, 64, corrupt[:64]},            // unaligned begin
		call{0, pieceLen, corrupt},           // begins past the piece
		call{9, 384, corrupt},                // overflows the short final piece
		call{0, -blockSize, corrupt},         // negative begin
		call{1, 0, nil},                      // empty block
		call{2, 0, make([]byte, 2*pieceLen)}) // longer than the piece
	calls = append(hostile, calls...)

	type result struct {
		done  bool
		class string
	}
	var results [2][]result
	var final [2][]byte
	for b, backing := range backings {
		s := backing.open(t, info)
		for _, c := range calls {
			done, err := s.AddBlock(c.idx, c.begin, blockSize, c.data)
			results[b] = append(results[b], result{done, errClass(err)})
		}
		got, err := s.Content()
		if err != nil {
			t.Fatalf("%s: %v", backing.name, err)
		}
		final[b] = got
	}
	completed := 0
	for i := range calls {
		if results[0][i] != results[1][i] {
			t.Errorf("call %d (piece %d begin %d len %d): memory %+v, file %+v",
				i, calls[i].idx, calls[i].begin, len(calls[i].data), results[0][i], results[1][i])
		}
		if results[0][i].done {
			completed++
		}
	}
	if results[0][3].class != "verify" {
		t.Errorf("corrupt piece: %+v, want a verify failure", results[0][3])
	}
	if completed != info.NumPieces() {
		t.Errorf("%d pieces completed, want %d", completed, info.NumPieces())
	}
	if !bytes.Equal(final[0], content) || !bytes.Equal(final[1], content) {
		t.Error("final bytes differ from the content")
	}
}

func TestSeededStorage(t *testing.T) {
	content := testContent(777, 6)
	info := testInfo(t, content, 200)
	s, err := NewSeededStorage(info, content)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Complete() || s.Left() != 0 {
		t.Error("seeded storage must be complete")
	}
	back, err := s.Content()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, content) {
		t.Error("content reassembly mismatch")
	}
	if _, err := NewSeededStorage(info, content[:100]); err == nil {
		t.Error("wrong-length content must fail")
	}
	empty, err := NewStorage(info)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Content(); err == nil {
		t.Error("incomplete Content must fail")
	}
}

func TestPickerStrategies(t *testing.T) {
	rng := stats.NewRNG(1, 2)
	p := newPicker(PickRarestFirst, 8, rng)
	remoteAll := fullSet(8)
	have := emptySet(8)

	// Availability: piece 5 rare (count 1), others common.
	for i := 0; i < 3; i++ {
		p.addBitfield(remoteAll)
	}
	rare := emptySet(8)
	mustAdd(t, rare, 5)
	p.removeBitfield(rare) // piece 5 now at 2 while others at 3
	got := p.pick(remoteAll, have)
	if got != 5 {
		t.Errorf("rarest-first picked %d, want 5", got)
	}
	// Piece 5 is now assigned; the next pick must differ.
	got2 := p.pick(remoteAll, have)
	if got2 == 5 || got2 < 0 {
		t.Errorf("second pick = %d", got2)
	}
	p.release(5)
	got3 := p.pick(remoteAll, have)
	if got3 != 5 {
		t.Errorf("after release pick = %d, want 5", got3)
	}

	// Nothing pickable when we have everything.
	if got := p.pick(remoteAll, fullSet(8)); got != -1 {
		t.Errorf("complete pick = %d, want -1", got)
	}

	// Random-first stays within candidates.
	pr := newPicker(PickRandomFirst, 8, stats.NewRNG(3, 4))
	pr.addBitfield(remoteAll)
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		j := pr.pick(remoteAll, have)
		if j < 0 || j > 7 || seen[j] {
			t.Fatalf("random pick %d invalid or duplicate", j)
		}
		seen[j] = true
	}
	if pr.pick(remoteAll, have) != -1 {
		t.Error("all pieces assigned; pick must fail")
	}
}

func TestPickStrategyString(t *testing.T) {
	if PickRarestFirst.String() != "rarest-first" ||
		PickRandomFirst.String() != "random-first" ||
		PickStrategy(0).String() != "unknown" {
		t.Error("strategy names wrong")
	}
}
