package dist

// latencyAlpha is the EWMA smoothing factor for per-worker shard latency:
// each completed shard contributes 20% of the new average, so the score
// reacts within ~5 shards but a single outlier cannot capsize it.
const latencyAlpha = 0.2

// latencyEWMA holds, per worker name, an EWMA of per-grant shard latency
// in milliseconds. The scheduler uses it to prefer the faster of two
// equally loaded workers — a soft preference that never blocks a grant,
// which is why it is kept here and not in the strike book: being slow is
// not a failure. A name has an entry from its first completed shard
// until its last connection leaves.
//
// Coordinator-mutex-confined; no internal locking.
type latencyEWMA map[string]float64

// note folds one completed grant's latency into the worker's average.
func (l latencyEWMA) note(name string, ms float64) {
	if ms < 0 {
		ms = 0
	}
	if prev, ok := l[name]; ok {
		ms = latencyAlpha*ms + (1-latencyAlpha)*prev
	}
	l[name] = ms
}
