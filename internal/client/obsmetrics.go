package client

import "repro/internal/obs"

// clientMetrics caches the registry handles for one client's counters so
// the hot paths (every wire message) never touch the registry map. The
// handles always work; a nil registry just leaves them unregistered.
type clientMetrics struct {
	msgsIn, msgsOut       *obs.Counter
	bytesIn, bytesOut     *obs.Counter
	chokes, unchokes      *obs.Counter
	requestTimeouts       *obs.Counter
	endgameEntries        *obs.Counter
	shakes                *obs.Counter
	connects, disconnects *obs.Counter
	piecesVerified        *obs.Counter
	offenses, bans        *obs.Counter
	dialRetries           *obs.Counter
	announceFailures      *obs.Counter
}

// newClientMetrics creates the client.<name>.* counters in reg.
func newClientMetrics(reg *obs.Registry, name string) *clientMetrics {
	p := "client." + name + "."
	return &clientMetrics{
		msgsIn:           reg.Counter(p + "msgs_in"),
		msgsOut:          reg.Counter(p + "msgs_out"),
		bytesIn:          reg.Counter(p + "bytes_in"),
		bytesOut:         reg.Counter(p + "bytes_out"),
		chokes:           reg.Counter(p + "chokes"),
		unchokes:         reg.Counter(p + "unchokes"),
		requestTimeouts:  reg.Counter(p + "request_timeouts"),
		endgameEntries:   reg.Counter(p + "endgame_entries"),
		shakes:           reg.Counter(p + "shakes"),
		connects:         reg.Counter(p + "connects"),
		disconnects:      reg.Counter(p + "disconnects"),
		piecesVerified:   reg.Counter(p + "pieces_verified"),
		offenses:         reg.Counter(p + "offenses"),
		bans:             reg.Counter(p + "bans"),
		dialRetries:      reg.Counter(p + "dial_retries"),
		announceFailures: reg.Counter(p + "announce_failures"),
	}
}

// wireOverhead is the per-message framing cost (4-byte length prefix plus
// the 1-byte message id) added to the payload when counting bytes.
const wireOverhead = 5

func (m *clientMetrics) countIn(payload int) {
	m.msgsIn.Inc()
	m.bytesIn.Add(int64(payload + wireOverhead))
}

func (m *clientMetrics) countOut(payload int) {
	m.msgsOut.Inc()
	m.bytesOut.Add(int64(payload + wireOverhead))
}
