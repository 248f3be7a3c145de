package tracker

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// The UDP tracker protocol (BEP 15): a 16-byte connect handshake followed
// by 98-byte announce requests, all big-endian. This file implements both
// the server (sharing swarm state with the HTTP tracker in Server) and
// the client side.

// udpProtocolMagic is the fixed connect-request connection id.
const udpProtocolMagic = 0x41727101980

// UDP actions.
const (
	udpActionConnect  = 0
	udpActionAnnounce = 1
	udpActionError    = 3
)

// connectionIDTTL is how long an issued connection id stays valid.
const connectionIDTTL = 2 * time.Minute

// udpMaxPacket is the largest packet either side reads; the server cuts
// an announce reply's peer list to fit it (maxUDPPeers), since a longer
// one would reach the client truncated mid-peer.
const (
	udpMaxPacket = 2048
	maxUDPPeers  = (udpMaxPacket - 20) / 6
)

// UDPServer serves the BEP 15 announce protocol backed by the same swarm
// state as the HTTP Server.
type UDPServer struct {
	state *Server
	conn  *net.UDPConn

	mu     sync.Mutex
	nextID uint64
	issued map[uint64]time.Time

	done chan struct{}
	wg   sync.WaitGroup
}

// NewUDPServer binds a UDP socket on addr (e.g. "127.0.0.1:0") and serves
// announces against the given tracker state. Call Close to stop.
func NewUDPServer(state *Server, addr string) (*UDPServer, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("tracker: resolve udp addr: %w", err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("tracker: listen udp: %w", err)
	}
	s := &UDPServer{
		state:  state,
		conn:   conn,
		nextID: 1,
		issued: make(map[uint64]time.Time),
		done:   make(chan struct{}),
	}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the bound UDP address.
func (s *UDPServer) Addr() net.Addr { return s.conn.LocalAddr() }

// Close stops the server.
func (s *UDPServer) Close() error {
	close(s.done)
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

func (s *UDPServer) serve() {
	defer s.wg.Done()
	buf := make([]byte, udpMaxPacket)
	for {
		n, remote, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		if resp := s.handlePacket(buf[:n], remote); resp != nil {
			_, _ = s.conn.WriteToUDP(resp, remote)
		}
	}
}

func (s *UDPServer) handlePacket(pkt []byte, remote *net.UDPAddr) []byte {
	if len(pkt) < 16 {
		return nil
	}
	connID := binary.BigEndian.Uint64(pkt[0:8])
	action := binary.BigEndian.Uint32(pkt[8:12])
	txn := binary.BigEndian.Uint32(pkt[12:16])

	switch action {
	case udpActionConnect:
		if connID != udpProtocolMagic {
			return udpError(txn, "bad protocol magic")
		}
		id := s.issueConnectionID()
		resp := make([]byte, 16)
		binary.BigEndian.PutUint32(resp[0:4], udpActionConnect)
		binary.BigEndian.PutUint32(resp[4:8], txn)
		binary.BigEndian.PutUint64(resp[8:16], id)
		return resp

	case udpActionAnnounce:
		if !s.validConnectionID(connID) {
			return udpError(txn, "expired connection id")
		}
		if len(pkt) < 98 {
			return udpError(txn, "short announce")
		}
		var infoHash, peerID [20]byte
		copy(infoHash[:], pkt[16:36])
		copy(peerID[:], pkt[36:56])
		left := int64(binary.BigEndian.Uint64(pkt[64:72]))
		eventCode := binary.BigEndian.Uint32(pkt[80:84])
		numWant := int(int32(binary.BigEndian.Uint32(pkt[92:96])))
		port := int(binary.BigEndian.Uint16(pkt[96:98]))
		if numWant < 0 {
			numWant = DefaultNumWant
		}
		numWant = min(numWant, maxUDPPeers)
		if port == 0 || left < 0 {
			return udpError(txn, "bad announce fields")
		}
		event := EventNone
		switch eventCode {
		case 1:
			event = EventCompleted
		case 2:
			event = EventStarted
		case 3:
			event = EventStopped
		}
		ip := remote.IP.To4()
		if ip == nil {
			return udpError(txn, "ipv4 only")
		}
		peers, seeders, leechers := s.state.announce(infoHash,
			PeerInfo{ID: peerID, IP: ip, Port: port}, left, event, numWant)

		compact := compactPeers(peers)
		resp := make([]byte, 20+len(compact))
		binary.BigEndian.PutUint32(resp[0:4], udpActionAnnounce)
		binary.BigEndian.PutUint32(resp[4:8], txn)
		binary.BigEndian.PutUint32(resp[8:12], uint32(s.state.Interval))
		binary.BigEndian.PutUint32(resp[12:16], uint32(leechers))
		binary.BigEndian.PutUint32(resp[16:20], uint32(seeders))
		copy(resp[20:], compact)
		return resp

	default:
		return udpError(txn, "unknown action")
	}
}

func (s *UDPServer) issueConnectionID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	for id, t := range s.issued {
		if now.Sub(t) > connectionIDTTL {
			delete(s.issued, id)
		}
	}
	id := s.nextID
	s.nextID++
	s.issued[id] = now
	return id
}

func (s *UDPServer) validConnectionID(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.issued[id]
	if !ok {
		return false
	}
	if time.Since(t) > connectionIDTTL {
		delete(s.issued, id)
		return false
	}
	return true
}

func udpError(txn uint32, msg string) []byte {
	resp := make([]byte, 8+len(msg))
	binary.BigEndian.PutUint32(resp[0:4], udpActionError)
	binary.BigEndian.PutUint32(resp[4:8], txn)
	copy(resp[8:], msg)
	return resp
}

// ErrUDPTracker wraps tracker-reported UDP errors.
var ErrUDPTracker = errors.New("tracker: udp announce failed")

// The BEP 15 client schedule: attempt n waits udpTimeout·2^n, and a
// request is re-sent udpRetransmits times after the first timeout (BEP
// 15 allows up to 8; two keep worst-case announce latency near a minute).
const (
	udpTimeout     = 15 * time.Second
	udpRetransmits = 2
)

// udpExchange sends pkt and waits for a reply, retransmitting with the BEP
// 15 backoff and honoring ctx cancellation via the socket deadline.
func udpExchange(ctx context.Context, conn *net.UDPConn, pkt, buf []byte) (int, error) {
	var lastErr error
	for attempt := 0; attempt <= udpRetransmits; attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		deadline := time.Now().Add(udpTimeout << uint(attempt))
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		if err := conn.SetDeadline(deadline); err != nil {
			return 0, err
		}
		if _, err := conn.Write(pkt); err != nil {
			lastErr = err
			continue
		}
		n, err := conn.Read(buf)
		if err == nil {
			return n, nil
		}
		lastErr = err
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			return 0, err // hard transport error: retransmission won't help
		}
	}
	return 0, fmt.Errorf("tracker: udp exchange gave up after %d sends: %w",
		udpRetransmits+1, lastErr)
}

// announceUDP performs a BEP 15 connect + announce round trip against a
// UDP tracker at addr, retransmitting each request with exponential
// backoff.
func announceUDP(ctx context.Context, addr string, req AnnounceRequest) (*AnnounceResponse, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("tracker: resolve %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, fmt.Errorf("tracker: dial udp: %w", err)
	}
	defer conn.Close() //nolint:errcheck

	// Connect.
	txn := uint32(time.Now().UnixNano())
	pkt := make([]byte, 16)
	binary.BigEndian.PutUint64(pkt[0:8], udpProtocolMagic)
	binary.BigEndian.PutUint32(pkt[8:12], udpActionConnect)
	binary.BigEndian.PutUint32(pkt[12:16], txn)
	buf := make([]byte, udpMaxPacket)
	n, err := udpExchange(ctx, conn, pkt, buf)
	if err != nil {
		return nil, fmt.Errorf("tracker: udp connect: %w", err)
	}
	connID, _, err := decodeUDPReply(buf[:n], udpActionConnect, txn)
	if err != nil {
		return nil, err
	}

	// Announce.
	txn++
	pkt = make([]byte, 98)
	binary.BigEndian.PutUint64(pkt[0:8], connID)
	binary.BigEndian.PutUint32(pkt[8:12], udpActionAnnounce)
	binary.BigEndian.PutUint32(pkt[12:16], txn)
	copy(pkt[16:36], req.InfoHash[:])
	copy(pkt[36:56], req.PeerID[:])
	binary.BigEndian.PutUint64(pkt[56:64], uint64(req.Downloaded))
	binary.BigEndian.PutUint64(pkt[64:72], uint64(req.Left))
	binary.BigEndian.PutUint64(pkt[72:80], uint64(req.Uploaded))
	binary.BigEndian.PutUint32(pkt[80:84], udpEventCode(req.Event))
	numWant := req.NumWant
	if numWant <= 0 {
		numWant = DefaultNumWant
	}
	binary.BigEndian.PutUint32(pkt[92:96], uint32(numWant))
	binary.BigEndian.PutUint16(pkt[96:98], uint16(req.Port))
	n, err = udpExchange(ctx, conn, pkt, buf)
	if err != nil {
		return nil, fmt.Errorf("tracker: udp announce: %w", err)
	}
	_, resp, err := decodeUDPReply(buf[:n], udpActionAnnounce, txn)
	return resp, err
}

// decodeUDPReply checks a reply against the request it answers — the
// action sent (connect or announce) and its transaction id — and decodes
// it: the connection id of a connect reply, the response of an announce
// reply. A tracker error reply of any length, for this transaction,
// surfaces the tracker's message.
func decodeUDPReply(pkt []byte, action, txn uint32) (connID uint64, resp *AnnounceResponse, err error) {
	what, size := "connect", 16
	if action == udpActionAnnounce {
		what, size = "announce", 20
	}
	isError := len(pkt) >= 8 && binary.BigEndian.Uint32(pkt[0:4]) == udpActionError
	switch {
	case len(pkt) < size && !isError:
		return 0, nil, fmt.Errorf("%w: short %s response", ErrUDPTracker, what)
	case binary.BigEndian.Uint32(pkt[4:8]) != txn:
		return 0, nil, fmt.Errorf("%w: transaction mismatch", ErrUDPTracker)
	case binary.BigEndian.Uint32(pkt[0:4]) != action:
		return 0, nil, fmt.Errorf("%w: %s", ErrUDPTracker, udpErrMessage(pkt))
	case action == udpActionConnect:
		return binary.BigEndian.Uint64(pkt[8:16]), nil, nil
	}
	peers, err := ParseCompactPeers(pkt[20:])
	if err != nil {
		return 0, nil, err
	}
	return 0, &AnnounceResponse{
		Interval: time.Duration(binary.BigEndian.Uint32(pkt[8:12])) * time.Second,
		Leechers: int(binary.BigEndian.Uint32(pkt[12:16])),
		Seeders:  int(binary.BigEndian.Uint32(pkt[16:20])),
		Peers:    peers,
	}, nil
}

func udpEventCode(e Event) uint32 {
	switch e {
	case EventCompleted:
		return 1
	case EventStarted:
		return 2
	case EventStopped:
		return 3
	default:
		return 0
	}
}

func udpErrMessage(pkt []byte) string {
	if len(pkt) <= 8 {
		return "unspecified"
	}
	return string(pkt[8:])
}
