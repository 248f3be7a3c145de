package trace

// Phase labels the three regimes of a download the paper identifies
// (Section 3.2).
type Phase int

// The three phases, in download order.
const (
	PhaseBootstrap Phase = iota + 1
	PhaseEfficient
	PhaseLast
)

// String returns the phase name.
func (p Phase) String() string {
	if p < PhaseBootstrap || p > PhaseLast {
		return "unknown"
	}
	return [...]string{"bootstrap", "efficient", "last"}[p-1]
}

// Phaser is the one phase rule: it labels a download's states in order
// (core's chain steps, Analyze's samples, bttrace's metric intervals),
// remembering whether the peer has booted. A state is bootstrap until the
// peer first holds a piece AND has a non-empty potential set — that state
// is efficient — and afterwards last while the potential set is empty and
// 1 < pieces < B, whatever its live connections; every other state is
// efficient. A Phaser{B: pieces} is ready to use; Next allocates nothing.
type Phaser struct {
	// B is the download's piece count.
	B int
	// Booted reports whether the peer has booted; set it to resume
	// labelling mid-download, as core's exact chain does per state.
	Booted bool
}

// Next labels the next state: the pieces held and the potential-set size.
func (p *Phaser) Next(pieces, potential int) Phase {
	if !p.Booted {
		if pieces < 1 || potential < 1 {
			return PhaseBootstrap
		}
		p.Booted = true
		return PhaseEfficient
	}
	if potential == 0 && pieces > 1 && pieces < p.B {
		return PhaseLast
	}
	return PhaseEfficient
}
