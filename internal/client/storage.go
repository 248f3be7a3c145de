// Package client implements a runnable mini-BitTorrent client over real
// TCP: verified piece storage, rarest-first/random-first piece picking, a
// tit-for-tat choker with optimistic unchoking, tracker integration, and
// the download instrumentation (cumulative bytes + potential-set size)
// that reproduces the paper's modified-BitTornado measurement methodology
// (Section 4.2) on loopback swarms.
package client

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/bitset"
	"repro/internal/metainfo"
)

// backing is where verified pieces live, each at its final offset: a
// byte slice in memory or an *os.File on disk. Storage checks every
// range against the torrent geometry before it gets here.
type backing interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
}

// memBacking is the in-memory backing, sized to the torrent up front.
type memBacking []byte

func (m memBacking) ReadAt(p []byte, off int64) (int, error)  { return copy(p, m[off:]), nil }
func (m memBacking) WriteAt(p []byte, off int64) (int, error) { return copy(m[off:], p), nil }
func (m memBacking) Close() error                             { return nil }

// Storage is a verified piece store. Blocks are buffered per piece and
// the piece is committed to the backing only when its SHA-1 matches the
// metainfo hash. Storage is safe for concurrent use.
type Storage struct {
	mu      sync.RWMutex
	info    metainfo.Info
	back    backing
	have    *bitset.Set
	partial map[int]*partialPiece
	bytes   int64
}

type partialPiece struct {
	data    []byte
	written *bitset.Set // block-granularity occupancy
	blockSz int
}

// ErrBadBlock reports a block write outside the piece geometry.
var ErrBadBlock = errors.New("client: block outside piece bounds")

// ErrVerify reports a completed piece whose hash did not match.
var ErrVerify = errors.New("client: piece failed hash verification")

func newStorage(info metainfo.Info, back backing) *Storage {
	return &Storage{
		info:    info,
		back:    back,
		have:    bitset.New(info.NumPieces()),
		partial: make(map[int]*partialPiece),
	}
}

// maxMemStorage bounds an in-memory store: metainfo.Validate admits
// torrents of terabytes, which belong in NewFileStorage; asking make for
// one would take the process down, not return an error.
const maxMemStorage = 1 << 30

// NewStorage returns an empty in-memory store for the given metainfo.
func NewStorage(info metainfo.Info) (*Storage, error) {
	if err := info.Validate(); err != nil {
		return nil, err
	}
	if info.Length > maxMemStorage {
		return nil, fmt.Errorf("client: %d bytes exceeds the in-memory store's %d; use NewFileStorage", info.Length, maxMemStorage)
	}
	return newStorage(info, make(memBacking, info.Length)), nil
}

// NewSeededStorage returns an in-memory store pre-loaded with a copy of
// the full content, every piece of which must verify.
func NewSeededStorage(info metainfo.Info, content []byte) (*Storage, error) {
	if int64(len(content)) != info.Length {
		return nil, fmt.Errorf("client: content length %d != %d", len(content), info.Length)
	}
	if err := info.Validate(); err != nil {
		return nil, err
	}
	s := newStorage(info, append(memBacking(nil), content...))
	if err := s.verifyExisting(); err != nil {
		return nil, err
	}
	for i := 0; i < info.NumPieces(); i++ {
		if !s.have.Has(i) {
			return nil, fmt.Errorf("%w: piece %d", ErrVerify, i)
		}
	}
	return s, nil
}

// NewFileStorage opens (or creates) the backing file at path, sizes it to
// the torrent length, and re-verifies any pieces already present so an
// interrupted download resumes where it left off.
func NewFileStorage(info metainfo.Info, path string) (*Storage, error) {
	if err := info.Validate(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("client: open storage file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("client: stat storage file: %w", err)
	}
	resume := st.Size() == info.Length
	if err := f.Truncate(info.Length); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("client: size storage file: %w", err)
	}
	s := newStorage(info, f)
	if resume {
		if err := s.verifyExisting(); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	return s, nil
}

// verifyExisting hashes every piece the backing already holds and marks
// the valid ones as held: seeding and file resume are the same pass.
func (s *Storage) verifyExisting() error {
	buf := make([]byte, s.info.PieceLength)
	for i := 0; i < s.info.NumPieces(); i++ {
		size := s.info.PieceSize(i)
		piece := buf[:size]
		if _, err := s.back.ReadAt(piece, int64(i)*s.info.PieceLength); err != nil {
			return fmt.Errorf("client: resume read piece %d: %w", i, err)
		}
		if s.info.VerifyPiece(i, piece) {
			if err := s.have.Add(i); err != nil {
				return err
			}
			s.bytes += size
		}
	}
	return nil
}

// Close releases the backing (the file of a disk-backed store).
func (s *Storage) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.back.Close()
}

// Info returns the torrent geometry.
func (s *Storage) Info() metainfo.Info { return s.info }

// Have returns a snapshot of the verified piece set.
func (s *Storage) Have() *bitset.Set {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.have.Clone()
}

// NumHave returns the number of verified pieces.
func (s *Storage) NumHave() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.have.Count()
}

// BytesVerified returns the number of payload bytes in verified pieces.
func (s *Storage) BytesVerified() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Complete reports whether every piece is verified.
func (s *Storage) Complete() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.have.Full()
}

// Left returns the number of bytes still missing (for tracker announces).
func (s *Storage) Left() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.info.Length - s.bytes
}

// ReadBlock returns a copy of a block from a verified piece.
func (s *Storage) ReadBlock(idx, begin, length int) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.have.Has(idx) {
		return nil, fmt.Errorf("client: piece %d not held", idx)
	}
	pieceSize := int(s.info.PieceSize(idx))
	if begin < 0 || length <= 0 || begin+length > pieceSize {
		return nil, fmt.Errorf("%w: piece %d [%d:%d)", ErrBadBlock, idx, begin, begin+length)
	}
	out := make([]byte, length)
	if _, err := s.back.ReadAt(out, int64(idx)*s.info.PieceLength+int64(begin)); err != nil {
		return nil, fmt.Errorf("client: read block: %w", err)
	}
	return out, nil
}

// AddBlock buffers a downloaded block. It returns completed = true when
// the block finished its piece, the piece verified and it was written to
// its offset in the backing; ErrVerify when the assembled piece failed
// its hash (the partial buffer is discarded so the piece can be
// re-fetched).
func (s *Storage) AddBlock(idx, begin, blockSize int, data []byte) (completed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pieceSize := int(s.info.PieceSize(idx))
	if pieceSize == 0 {
		return false, fmt.Errorf("%w: piece %d out of range", ErrBadBlock, idx)
	}
	if s.have.Has(idx) {
		return false, nil // duplicate delivery; ignore
	}
	if begin < 0 || begin%blockSize != 0 || begin+len(data) > pieceSize || len(data) == 0 {
		return false, fmt.Errorf("%w: piece %d begin %d len %d", ErrBadBlock, idx, begin, len(data))
	}
	pp := s.partial[idx]
	if pp == nil {
		nBlocks := (pieceSize + blockSize - 1) / blockSize
		pp = &partialPiece{
			data:    make([]byte, pieceSize),
			written: bitset.New(nBlocks),
			blockSz: blockSize,
		}
		s.partial[idx] = pp
	}
	if pp.blockSz != blockSize {
		return false, fmt.Errorf("%w: inconsistent block size %d vs %d", ErrBadBlock, blockSize, pp.blockSz)
	}
	copy(pp.data[begin:], data)
	if err := pp.written.Add(begin / blockSize); err != nil {
		return false, fmt.Errorf("%w: %v", ErrBadBlock, err)
	}
	if !pp.written.Full() {
		return false, nil
	}
	delete(s.partial, idx)
	if !s.info.VerifyPiece(idx, pp.data) {
		return false, fmt.Errorf("%w: piece %d", ErrVerify, idx)
	}
	if _, err := s.back.WriteAt(pp.data, int64(idx)*s.info.PieceLength); err != nil {
		return false, fmt.Errorf("client: write piece %d: %w", idx, err)
	}
	if err := s.have.Add(idx); err != nil {
		return false, err
	}
	s.bytes += int64(pieceSize)
	return true, nil
}

// Content reassembles the full payload; only valid when Complete.
func (s *Storage) Content() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.have.Full() {
		return nil, errors.New("client: download incomplete")
	}
	out := make([]byte, s.info.Length)
	if _, err := s.back.ReadAt(out, 0); err != nil {
		return nil, fmt.Errorf("client: read content: %w", err)
	}
	return out, nil
}
