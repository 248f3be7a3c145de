package core

// Exact transient analysis of the download chain: expected time spent in
// each phase, expected download time and phase occupancy over time,
// computed without sampling. The paper (Section 6) leaves "exact analysis
// ... including transient effects" as future work; this file provides it
// at any scale the sampler runs at.
//
// The analyses run on the chain the sampler samples: every transition
// probability is read off a Model's running sums (Model.iLaw, Model.nLaw).
// A state is (n, b, z, booted), z = 1 when the potential set is non-empty:
// every transition law depends on i only through z, and so does the label
// trace.Phaser gives a state, so nothing is lost. A step lands on
// b' = min(F + f, B), f the pieces seeds deliver (Params.Seeds; f = 0
// without seeds). That never lowers b and keeps it only when n = 0 and
// f = 0, so the only cycles are among the four n = 0 states of one level
// b, and each analysis is one sweep over the levels with a 4×4 dense
// solve per level.

import (
	"fmt"

	"repro/internal/trace"
)

// PhaseDurations holds expected step counts per download phase.
type PhaseDurations struct {
	Bootstrap float64
	Efficient float64
	Last      float64
}

// Total returns the expected download time in steps.
func (d PhaseDurations) Total() float64 { return d.Bootstrap + d.Efficient + d.Last }

// kernel is the exact chain's one-step law over the states (n, b, z,
// booted), held level by level: state (n, b, z, booted) is entry
// ((b·(K+1)+n)·2+z)·2+booted, so the four n = 0 states of level b are the
// first four of its 4(K+1).
type kernel struct {
	p Params
	w int // K+1
	// rows[(b·(K+1)+n)·2+z] is the law of (z', n') from (n, b, z), b < B:
	// entry z'·(K+1)+n'.
	rows [][]float64
	// free[f] is the probability seeds deliver f pieces in a step, drawn
	// independently of (z', n'): {1} without seeds.
	free []float64
}

// newKernel sums Model's i' and n' laws into the landing law of each
// (n, b, z), taking i = z as the representative of its class, and keeps
// the seed law Model.Step draws its free pieces from.
func newKernel(p Params) (*kernel, error) {
	m, err := NewModel(p)
	if err != nil {
		return nil, err
	}
	k := &kernel{p: p, w: p.K + 1, rows: make([][]float64, p.B*(p.K+1)*2), free: []float64{1}}
	if m.free != nil {
		k.free = make([]float64, len(m.free))
		m.free.probs(k.free)
	}
	iRow := make([]float64, p.S+1)
	nRow := make([]float64, p.K+1)
	for src := range k.rows {
		b, n, z := src/(2*k.w), src/2%k.w, src%2
		row := make([]float64, 2*k.w)
		for iNext, pi := range m.iLaw(iRow, n, b, z) {
			if pi == 0 {
				continue
			}
			off := min(iNext, 1) * k.w
			for nNext, pn := range m.nLaw(nRow, n, b, iNext) {
				row[off+nNext] += pi * pn
			}
		}
		k.rows[src] = row
	}
	return k, nil
}

// at returns the index of state (n, b, z, booted).
func (k *kernel) at(b, n, z int, booted bool) int {
	st := ((b*k.w+n)*2 + z) * 2
	if booted {
		st++
	}
	return st
}

// phase labels state st as trace.Phaser labels a step landing in it.
func (k *kernel) phase(st int) trace.Phase {
	ph := trace.Phaser{B: k.p.B, Booted: st%2 == 1}
	return ph.Next(st/(4*k.w), st/2%2)
}

// each calls visit for every state st moves to in one step, with its
// probability; booted' is what trace.Phaser makes of landing in (b', z').
// st must be below level B.
func (k *kernel) each(st int, visit func(to int, pr float64)) {
	b, n := st/(4*k.w), st/4%k.w
	row := k.rows[st/2]
	for f, pf := range k.free {
		if pf == 0 {
			continue
		}
		bNext := min(F(k.p.B, n, b)+f, k.p.B)
		for z := range 2 {
			ph := trace.Phaser{B: k.p.B, Booted: st%2 == 1}
			ph.Next(bNext, z)
			for nNext, pr := range row[z*k.w : (z+1)*k.w] {
				if pr != 0 {
					visit(k.at(bNext, nNext, z, ph.Booted), pr*pf)
				}
			}
		}
	}
}

// push adds mass·P(st → ·) to dst.
func (k *kernel) push(dst []float64, st int, mass float64) {
	k.each(st, func(to int, pr float64) { dst[to] += mass * pr })
}

// block returns I − Q for the n = 0 states of level b, Q their
// transitions among themselves. Each diagonal entry is its state's outflow
// rather than 1 − Q[j][j], so a state that cannot leave has pivot 0
// exactly.
func (k *kernel) block(b int) (a [4][4]float64) {
	base := k.at(b, 0, 0, false)
	for j := range 4 {
		k.each(base+j, func(to int, pr float64) {
			if to == base+j {
				return
			}
			a[j][j] += pr
			if l := to - base; l < 4 {
				a[j][l] -= pr
			}
		})
	}
	return a
}

// solve overwrites x with y solving a·y = x, or aᵀ·y = x. a = I − Q for a
// substochastic Q is diagonally dominant, so elimination needs no pivoting
// and every pivot is positive unless some state can never leave level b.
func solve(a [4][4]float64, x *[4]float64, transpose bool, b int) error {
	if transpose {
		for r := range 4 {
			for c := range r {
				a[r][c], a[c][r] = a[c][r], a[r][c]
			}
		}
	}
	for c := range 4 {
		if !(a[c][c] > 0) {
			return fmt.Errorf("core: a download can stay at %d pieces forever; no exact analysis", b)
		}
		for r := c + 1; r < 4; r++ {
			f := a[r][c] / a[c][c]
			for cc := c; cc < 4; cc++ {
				a[r][cc] -= f * a[c][cc]
			}
			x[r] -= f * x[c]
		}
	}
	for c := 3; c >= 0; c-- {
		for cc := c + 1; cc < 4; cc++ {
			x[c] -= a[c][cc] * x[cc]
		}
		x[c] /= a[c][c]
	}
	return nil
}

// visits sweeps the levels forward once and returns p's kernel and each
// state's expected landings, levels 0..B. A state's expected landings are
// its expected visits, the join state's aside: nothing lands on level 0.
func visits(p Params) (*kernel, []float64, error) {
	k, err := newKernel(p)
	if err != nil {
		return nil, nil, err
	}
	v := make([]float64, k.at(p.B+1, 0, 0, false))
	k.push(v, k.at(0, 0, 0, false), 1)
	for b := 1; b < p.B; b++ {
		// The n = 0 states' visits x solve x = landings from below + Qᵀx.
		// Pushing x adds Qᵀx to the block, whose entries become x, and
		// sends the rest to this level's n > 0 states, which move up.
		base, top := k.at(b, 0, 0, false), k.at(b+1, 0, 0, false)
		x := [4]float64(v[base : base+4])
		if err := solve(k.block(b), &x, true, b); err != nil {
			return nil, nil, err
		}
		for j, xj := range x {
			k.push(v, base+j, xj)
		}
		for st := base + 4; st < top; st++ {
			if v[st] != 0 {
				k.push(v, st, v[st])
			}
		}
	}
	return k, v, nil
}

// ExactPhaseDurations computes the expected number of steps spent in each
// phase from joining to completion, from the one forward sweep. A step
// counts in the phase of the state it lands in, as EnsembleAccum labels a
// trajectory: the join state is not counted and the completing step is
// (booted, so efficient, whenever B ≥ 2).
func ExactPhaseDurations(p Params) (PhaseDurations, error) {
	k, v, err := visits(p)
	if err != nil {
		return PhaseDurations{}, err
	}
	var by [trace.PhaseLast + 1]float64
	for st, vs := range v {
		if vs != 0 {
			by[k.phase(st)] += vs
		}
	}
	return PhaseDurations{
		Bootstrap: by[trace.PhaseBootstrap], Efficient: by[trace.PhaseEfficient], Last: by[trace.PhaseLast],
	}, nil
}

// ExpectedDownloadTime computes the expected number of steps from joining
// until the peer holds all B pieces, by first-step analysis swept down
// the levels: T = 1 + Σ P(st → to)·T(to), T = 0 at level B. It shares the
// kernel with ExactPhaseDurations but not the sweep, so it is an
// independent check of that sweep's total.
func ExpectedDownloadTime(p Params) (float64, error) {
	k, err := newKernel(p)
	if err != nil {
		return 0, err
	}
	T := make([]float64, k.at(p.B+1, 0, 0, false))
	expect := func(st int) float64 {
		t := 1.0
		k.each(st, func(to int, pr float64) { t += pr * T[to] })
		return t
	}
	for b := p.B - 1; b >= 1; b-- {
		base, top := k.at(b, 0, 0, false), k.at(b+1, 0, 0, false)
		for st := base + 4; st < top; st++ {
			T[st] = expect(st)
		}
		// The n = 0 states' T are still 0 here, so expect sums only the
		// transitions that leave the block: x = 1 + that sum + Q·x.
		var x [4]float64
		for j := range x {
			x[j] = expect(base + j)
		}
		if err := solve(k.block(b), &x, false, b); err != nil {
			return 0, err
		}
		copy(T[base:], x[:])
	}
	return expect(k.at(0, 0, 0, false)), nil
}

// PhaseOccupancy returns, for each step t = 0..steps, the probability
// that a (not yet completed) peer is in each phase at time t, plus the
// cumulative completion probability — the transient view of the download
// process.
type PhaseOccupancy struct {
	// Bootstrap[t], Efficient[t], Last[t] are phase probabilities at
	// step t; Done[t] is the probability of having completed by t.
	Bootstrap []float64
	Efficient []float64
	Last      []float64
	Done      []float64
}

// TransientPhases evolves the exact chain's distribution for the given
// number of steps and reports phase occupancy over time, each state
// labelled by trace.Phaser.
func TransientPhases(p Params, steps int) (PhaseOccupancy, error) {
	k, err := newKernel(p)
	if err != nil {
		return PhaseOccupancy{}, err
	}
	out := PhaseOccupancy{
		Bootstrap: make([]float64, steps+1),
		Efficient: make([]float64, steps+1),
		Last:      make([]float64, steps+1),
		Done:      make([]float64, steps+1),
	}
	byPhase := [...][]float64{trace.PhaseBootstrap: out.Bootstrap, trace.PhaseEfficient: out.Efficient, trace.PhaseLast: out.Last}
	done := k.at(p.B, 0, 0, false) // the first state of level B
	size := k.at(p.B+1, 0, 0, false)
	dist, next := make([]float64, size), make([]float64, size)
	dist[k.at(0, 0, 0, false)] = 1
	for t := 0; ; t++ {
		for st, pm := range dist {
			switch {
			case pm == 0:
			case st >= done:
				out.Done[t] += pm
			default:
				byPhase[k.phase(st)][t] += pm
			}
		}
		if t == steps {
			return out, nil
		}
		clear(next[:done])
		copy(next[done:], dist[done:])
		for st, pm := range dist[:done] {
			if pm != 0 {
				k.push(next, st, pm)
			}
		}
		dist, next = next, dist
	}
}
