package metainfo

import (
	"testing"

	"repro/internal/bencode"
)

// FuzzUnmarshal asserts Unmarshal never panics and that whatever it
// accepts is a torrent the client can take as is: Validate passes, there
// is exactly one hash per 20 bytes of the pieces blob, and re-marshalling
// names the same swarm.
func FuzzUnmarshal(f *testing.F) {
	f.Add([]byte("d8:announce3:url4:infod6:lengthi3e4:name1:f12:piece lengthi2e6:pieces40:aaaaaaaaaaaaaaaaaaaabbbbbbbbbbbbbbbbbbbbee"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tor, err := Unmarshal(data)
		if err != nil {
			return
		}
		if err := tor.Info.Validate(); err != nil {
			t.Fatalf("accepted torrent fails Validate: %v", err)
		}
		v, _ := bencode.Decode(data)
		root, _ := bencode.AsDict(v)
		info, _ := root.Sub("info")
		if pieces, _ := info.String("pieces"); tor.Info.NumPieces()*HashSize != len(pieces) {
			t.Fatalf("%d pieces from a %d-byte blob", tor.Info.NumPieces(), len(pieces))
		}
		blob, err := Marshal(tor.Announce, tor.Info)
		if err != nil {
			t.Fatalf("accepted torrent fails Marshal: %v", err)
		}
		if again, err := Unmarshal(blob); err != nil || again.Hash != tor.Hash {
			t.Fatalf("round trip: %v, infohash %v -> %v", err, tor.Hash, again)
		}
	})
}
