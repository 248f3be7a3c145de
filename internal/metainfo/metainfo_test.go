package metainfo

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func testContent(n int) []byte {
	r := stats.NewRNG(4, 2)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.IntN(256))
	}
	return out
}

func TestFromContentGeometry(t *testing.T) {
	content := testContent(1000)
	info, err := FromContent("f.bin", content, 256)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumPieces() != 4 {
		t.Fatalf("pieces = %d, want 4", info.NumPieces())
	}
	if info.PieceSize(0) != 256 || info.PieceSize(3) != 232 {
		t.Errorf("piece sizes %d/%d, want 256/232", info.PieceSize(0), info.PieceSize(3))
	}
	if info.PieceSize(-1) != 0 || info.PieceSize(4) != 0 {
		t.Error("out-of-range piece size must be 0")
	}
	// Exact multiple: final piece is full-size.
	info2, err := FromContent("g.bin", testContent(512), 256)
	if err != nil {
		t.Fatal(err)
	}
	if info2.PieceSize(1) != 256 {
		t.Errorf("full final piece = %d", info2.PieceSize(1))
	}
}

func TestFromContentErrors(t *testing.T) {
	if _, err := FromContent("x", nil, 10); err == nil {
		t.Error("empty content must fail")
	}
	if _, err := FromContent("x", []byte{1}, 0); err == nil {
		t.Error("zero piece length must fail")
	}
}

func TestVerifyPiece(t *testing.T) {
	content := testContent(600)
	info, err := FromContent("f", content, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < info.NumPieces(); i++ {
		lo := int64(i) * 256
		hi := lo + info.PieceSize(i)
		if !info.VerifyPiece(i, content[lo:hi]) {
			t.Errorf("genuine piece %d rejected", i)
		}
	}
	bad := make([]byte, 256)
	if info.VerifyPiece(0, bad) {
		t.Error("corrupt piece accepted")
	}
	if info.VerifyPiece(0, content[:100]) {
		t.Error("short piece accepted")
	}
	if info.VerifyPiece(99, content[:256]) {
		t.Error("out-of-range piece accepted")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	content := testContent(5 << 10)
	info, err := FromContent("file.dat", content, 1024)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Marshal("http://127.0.0.1:7000/announce", info)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if tor.Announce != "http://127.0.0.1:7000/announce" {
		t.Errorf("announce = %q", tor.Announce)
	}
	if tor.Info.Name != "file.dat" || tor.Info.Length != int64(len(content)) {
		t.Errorf("info mismatch: %+v", tor.Info)
	}
	if tor.Info.NumPieces() != info.NumPieces() {
		t.Fatalf("piece count mismatch")
	}
	for i := range info.PieceHashes {
		if tor.Info.PieceHashes[i] != info.PieceHashes[i] {
			t.Fatalf("hash %d mismatch", i)
		}
	}
	wantHash, err := InfoHashOf(&info)
	if err != nil {
		t.Fatal(err)
	}
	if tor.Hash != wantHash {
		t.Error("infohash mismatch after round trip")
	}
	if len(tor.Hash.String()) != 40 {
		t.Errorf("hex infohash length %d", len(tor.Hash.String()))
	}
}

func TestInfoHashSensitivity(t *testing.T) {
	a, err := FromContent("f", testContent(512), 256)
	if err != nil {
		t.Fatal(err)
	}
	b := a
	b.Name = "other"
	ha, err := InfoHashOf(&a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := InfoHashOf(&b)
	if err != nil {
		t.Fatal(err)
	}
	if ha == hb {
		t.Error("different infos must have different hashes")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("i1e"),
		[]byte("d8:announce3:url4:infod4:name1:f12:piece lengthi0e6:lengthi1e6:pieces0:ee"),
		[]byte("d8:announce3:urle"),
		// pieces blob with bad length
		[]byte("d8:announce3:url4:infod6:lengthi10e4:name1:f12:piece lengthi4e6:pieces3:abcee"),
		// length = piece length = MaxInt64: the rounded-up piece count used
		// to wrap to the zero hashes given
		[]byte("d8:announce3:url4:infod6:lengthi9223372036854775807e4:name1:f12:piece lengthi9223372036854775807e6:pieces0:ee"),
		[]byte("d8:announce3:url4:infod6:lengthi9223372036854775807e4:name10:../../evil12:piece lengthi9223372036854775807e6:pieces0:ee"),
	}
	// The name is the default output path: one path element or nothing.
	for _, name := range []string{"../../evil", "a/b", `a\b`, "..", ".", "a\x00b"} {
		cases = append(cases, []byte(fmt.Sprintf(
			"d8:announce3:url4:infod6:lengthi1e4:name%d:%s12:piece lengthi1e6:pieces20:aaaaaaaaaaaaaaaaaaaaee", len(name), name)))
	}
	for i, blob := range cases {
		if _, err := Unmarshal(blob); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	for _, info := range []Info{
		{Name: "f", PieceLength: 1, Length: MaxPieces + 1},
		{Name: "f", PieceLength: MaxPieceLength + 1, Length: 1, PieceHashes: make([][HashSize]byte, 1)},
	} {
		if err := info.Validate(); err == nil || !strings.Contains(err.Error(), "cap") && !strings.Contains(err.Error(), "outside") {
			t.Errorf("%d bytes in pieces of %d: Validate = %v, want a cap error", info.Length, info.PieceLength, err)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, sizeRaw uint16, plRaw uint8) bool {
		size := int(sizeRaw)%4000 + 1
		pl := int64(plRaw)%512 + 1
		r := stats.NewRNG(seed, seed^7)
		content := make([]byte, size)
		for i := range content {
			content[i] = byte(r.IntN(256))
		}
		info, err := FromContent("p", content, pl)
		if err != nil {
			return false
		}
		blob, err := Marshal("u", info)
		if err != nil {
			return false
		}
		tor, err := Unmarshal(blob)
		if err != nil {
			return false
		}
		reEnc, err := Marshal("u", tor.Info)
		if err != nil {
			return false
		}
		return bytes.Equal(blob, reEnc)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
