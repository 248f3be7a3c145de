package client

import (
	"fmt"
	"net"
	"time"

	"repro/internal/bitset"
	"repro/internal/wire"
)

// peerConn is the client's view of one remote peer. All fields are
// confined to the client event loop except netc, which the read goroutine
// also uses.
type peerConn struct {
	netc    net.Conn
	id      [20]byte
	inbound bool
	// met is the owning client's metrics sink.
	met *clientMetrics

	// remote is the peer's advertised piece set (empty until BITFIELD).
	remote *bitset.Set

	amChoking      bool
	amInterested   bool
	peerChoking    bool
	peerInterested bool

	// cur is the piece currently being fetched from this peer (-1 none).
	cur int
	// outstanding counts unanswered block requests for cur.
	outstanding int

	// lastProgress is the last time an in-flight request advanced (set
	// when requests are issued and on every received block).
	lastProgress time.Time

	// windowDown counts bytes received since the last choke round; the
	// choker ranks peers by it (the tit-for-tat signal).
	windowDown int64
	totalDown  int64
	totalUp    int64

	closed bool
}

func (pc *peerConn) String() string {
	return fmt.Sprintf("peer %x@%s", pc.id[:4], pc.netc.RemoteAddr())
}

// seedLike reports whether the remote advertises the complete file.
func (pc *peerConn) seedLike() bool {
	return pc.remote.Full()
}

// send writes a wire message with a deadline.
func (pc *peerConn) send(m *wire.Message) error {
	if err := pc.netc.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return err
	}
	if err := wire.Write(pc.netc, m); err != nil {
		return err
	}
	pc.met.countOut(len(m.Payload))
	return nil
}

// connEvent is what the per-connection read goroutine delivers to the
// client event loop.
type connEvent struct {
	pc  *peerConn
	msg *wire.Message
	err error // non-nil means the connection is gone
}

// readLoop pumps wire messages into the client event loop until the
// connection errors. It must not touch any peerConn state besides netc.
func readLoop(pc *peerConn, events chan<- connEvent, done <-chan struct{}) {
	for {
		m, err := wire.Read(pc.netc)
		if err != nil {
			select {
			case events <- connEvent{pc: pc, err: err}:
			case <-done:
			}
			return
		}
		if m == nil {
			continue // keep-alive
		}
		select {
		case events <- connEvent{pc: pc, msg: m}:
		case <-done:
			return
		}
	}
}

// performHandshake exchanges handshakes on a fresh connection. For
// outbound connections we send first; for inbound we answer. timeout
// bounds the whole exchange (writeTimeout when zero).
func performHandshake(c net.Conn, infoHash, selfID [20]byte, inbound bool, timeout time.Duration) ([20]byte, error) {
	if timeout <= 0 {
		timeout = writeTimeout
	}
	if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return [20]byte{}, err
	}
	defer c.SetDeadline(time.Time{}) //nolint:errcheck // reset best-effort
	ours := wire.Handshake{InfoHash: infoHash, PeerID: selfID}
	if !inbound {
		if err := wire.WriteHandshake(c, ours); err != nil {
			return [20]byte{}, err
		}
	}
	theirs, err := wire.ReadHandshake(c)
	if err != nil {
		return [20]byte{}, err
	}
	if theirs.InfoHash != infoHash {
		return [20]byte{}, fmt.Errorf("client: infohash mismatch from %s", c.RemoteAddr())
	}
	if inbound {
		if err := wire.WriteHandshake(c, ours); err != nil {
			return [20]byte{}, err
		}
	}
	return theirs.PeerID, nil
}
