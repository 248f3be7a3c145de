// Package metainfo builds and parses torrent metadata (the .torrent
// format): the info dictionary with SHA-1 piece hashes, the announce URL,
// and the infohash that identifies a swarm.
package metainfo

import (
	"crypto/sha1"
	"errors"
	"fmt"
	"strings"

	"repro/internal/bencode"
)

// HashSize is the size of a SHA-1 digest.
const HashSize = sha1.Size

// InfoHash identifies a swarm: the SHA-1 of the bencoded info dictionary.
type InfoHash [HashSize]byte

// String renders the infohash in hex.
func (h InfoHash) String() string { return fmt.Sprintf("%x", h[:]) }

// Info is the torrent info dictionary.
type Info struct {
	// Name is the suggested file name.
	Name string
	// PieceLength is the nominal piece size in bytes.
	PieceLength int64
	// Length is the total file size in bytes.
	Length int64
	// PieceHashes holds one SHA-1 digest per piece.
	PieceHashes [][HashSize]byte
}

// Torrent is a parsed metainfo file.
type Torrent struct {
	Announce string
	Info     Info
	// Hash is the infohash of the info dictionary.
	Hash InfoHash
}

// NumPieces returns the piece count.
func (i *Info) NumPieces() int { return len(i.PieceHashes) }

// PieceSize returns the size of piece idx, accounting for a short final
// piece.
func (i *Info) PieceSize(idx int) int64 {
	if idx < 0 || idx >= i.NumPieces() {
		return 0
	}
	if idx == i.NumPieces()-1 {
		if rem := i.Length % i.PieceLength; rem != 0 {
			return rem
		}
	}
	return i.PieceLength
}

// MaxPieces caps the piece count of an accepted torrent at the door, as
// serve caps a request's: 2^20 pieces is a 20 MiB hash blob and a 128 KiB
// bitfield, inside wire.MaxPayload. MaxPieceLength caps one piece, which
// the client buffers whole to hash it.
const (
	MaxPieces      = 1 << 20
	MaxPieceLength = 1 << 26
)

// Validate checks what every consumer relies on: a name that is a single
// path element (it is the default output path), bounded geometry, and one
// hash per piece. The piece count is computed without the overflow that
// (Length + PieceLength - 1) has near MaxInt64.
func (i *Info) Validate() error {
	switch {
	case i.Name == "" || i.Name == "." || i.Name == ".." || strings.ContainsAny(i.Name, "/\\\x00"):
		return fmt.Errorf("metainfo: name %q is not a single path element", i.Name)
	case i.PieceLength < 1 || i.PieceLength > MaxPieceLength:
		return fmt.Errorf("metainfo: piece length %d outside [1, %d]", i.PieceLength, MaxPieceLength)
	case i.Length < 1:
		return fmt.Errorf("metainfo: length %d", i.Length)
	}
	want := i.Length / i.PieceLength
	if i.Length%i.PieceLength != 0 {
		want++
	}
	if want > MaxPieces {
		return fmt.Errorf("metainfo: %d pieces exceeds cap %d", want, MaxPieces)
	}
	if int64(len(i.PieceHashes)) != want {
		return fmt.Errorf("metainfo: %d piece hashes for %d pieces", len(i.PieceHashes), want)
	}
	return nil
}

// FromContent builds an Info for in-memory content, hashing each piece.
func FromContent(name string, content []byte, pieceLength int64) (Info, error) {
	if pieceLength < 1 {
		return Info{}, fmt.Errorf("metainfo: piece length %d", pieceLength)
	}
	if len(content) == 0 {
		return Info{}, errors.New("metainfo: empty content")
	}
	info := Info{
		Name:        name,
		PieceLength: pieceLength,
		Length:      int64(len(content)),
	}
	for off := int64(0); off < info.Length; off += pieceLength {
		end := off + pieceLength
		if end > info.Length {
			end = info.Length
		}
		info.PieceHashes = append(info.PieceHashes, sha1.Sum(content[off:end]))
	}
	if err := info.Validate(); err != nil {
		return Info{}, err
	}
	return info, nil
}

// VerifyPiece reports whether data matches the stored hash of piece idx.
func (i *Info) VerifyPiece(idx int, data []byte) bool {
	if idx < 0 || idx >= i.NumPieces() {
		return false
	}
	if int64(len(data)) != i.PieceSize(idx) {
		return false
	}
	return sha1.Sum(data) == i.PieceHashes[idx]
}

// infoDict converts the Info into its bencodable dictionary.
func (i *Info) infoDict() map[string]any {
	pieces := make([]byte, 0, len(i.PieceHashes)*HashSize)
	for _, h := range i.PieceHashes {
		pieces = append(pieces, h[:]...)
	}
	return map[string]any{
		"name":         i.Name,
		"piece length": i.PieceLength,
		"length":       i.Length,
		"pieces":       string(pieces),
	}
}

// InfoHashOf computes the swarm identifier for an info dictionary.
func InfoHashOf(i *Info) (InfoHash, error) {
	enc, err := bencode.Encode(i.infoDict())
	if err != nil {
		return InfoHash{}, err
	}
	return sha1.Sum(enc), nil
}

// Marshal serializes a torrent with its announce URL.
func Marshal(announce string, info Info) ([]byte, error) {
	if err := info.Validate(); err != nil {
		return nil, err
	}
	return bencode.Encode(map[string]any{
		"announce": announce,
		"info":     info.infoDict(),
	})
}

// Unmarshal parses a torrent file.
func Unmarshal(data []byte) (*Torrent, error) {
	v, err := bencode.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("metainfo: %w", err)
	}
	root, err := bencode.AsDict(v)
	if err != nil {
		return nil, err
	}
	announce, err := root.String("announce")
	if err != nil {
		return nil, err
	}
	infoDict, err := root.Sub("info")
	if err != nil {
		return nil, err
	}
	var info Info
	if info.Name, err = infoDict.String("name"); err != nil {
		return nil, err
	}
	if info.PieceLength, err = infoDict.Int("piece length"); err != nil {
		return nil, err
	}
	if info.Length, err = infoDict.Int("length"); err != nil {
		return nil, err
	}
	pieces, err := infoDict.String("pieces")
	if err != nil {
		return nil, err
	}
	if len(pieces)%HashSize != 0 {
		return nil, fmt.Errorf("metainfo: pieces blob length %d not a multiple of %d", len(pieces), HashSize)
	}
	for off := 0; off < len(pieces); off += HashSize {
		var h [HashSize]byte
		copy(h[:], pieces[off:off+HashSize])
		info.PieceHashes = append(info.PieceHashes, h)
	}
	if err := info.Validate(); err != nil {
		return nil, err
	}
	hash, err := InfoHashOf(&info)
	if err != nil {
		return nil, err
	}
	return &Torrent{Announce: announce, Info: info, Hash: hash}, nil
}
