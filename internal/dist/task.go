package dist

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// Evaluator computes one shard: the units [lo, hi) of the computation
// described by spec, serialized to an opaque payload. Evaluators MUST be
// pure functions of (spec, lo, hi) — the coordinator relies on that to
// lease a shard twice (fault recovery, straggler re-issue) and accept
// whichever result lands first. What one keeps between a task's leases
// goes through Prepared under the same rule: a pure function of the spec
// bytes, never of lo or hi, and immutable — concurrent leases share it.
type Evaluator func(ctx context.Context, spec []byte, lo, hi int) ([]byte, error)

// taskSlot holds what an evaluator prepared from one task's spec, for as
// long as the worker session keeps leasing shards of that task.
type taskSlot struct {
	kind string
	spec []byte

	mu    sync.Mutex // held across build, as sync.Once does: concurrent leases wait for one build
	built bool
	val   any
}

type slotKey struct{}

// Prepared returns build's value for the task that ctx's lease belongs
// to, built once per slot however many of the task's leases — one after
// another or at once — ask for it; a failed build is not kept, so the
// next lease retries. build must not itself call Prepared. A ctx with no
// slot (a direct call, a test's local reference) just builds.
func Prepared[T any](ctx context.Context, build func() (T, error)) (T, error) {
	slot, _ := ctx.Value(slotKey{}).(*taskSlot)
	if slot == nil {
		return build()
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if !slot.built {
		v, err := build()
		if err != nil {
			return v, err
		}
		slot.val, slot.built = v, true
	}
	return slot.val.(T), nil
}

// Task describes one distributed computation: N indexed units of the
// evaluator registered under Kind, parameterized by Spec.
type Task struct {
	// Kind names the worker-side evaluator.
	Kind string
	// Spec is the canonical request bytes shipped to workers (JSON).
	Spec []byte
	// Canonical, when non-nil, is the canonical byte form used for shard
	// content addressing (e.g. serve.Request.Canonical()); it defaults
	// to Spec. Two tasks meaning the same computation should share it.
	Canonical []byte
	// N is the number of indexed work units.
	N int
	// ShardSize is the number of units per shard (defaults to N, i.e.
	// one shard).
	ShardSize int
}

// ShardAddr returns the content address of the (canonical spec, [lo,hi))
// work unit: the hex SHA-256 of the canonical bytes with the index range
// appended in the serve canonical-form idiom. Identical computations
// collide on purpose — that is what makes result acceptance idempotent.
func ShardAddr(kind string, canonical []byte, lo, hi int) string {
	h := sha256.New()
	fmt.Fprintf(h, "kind=%s;", kind)
	h.Write(canonical)
	fmt.Fprintf(h, ";shard=%d-%d", lo, hi)
	return hex.EncodeToString(h.Sum(nil))
}

// shards cuts [0, N) into contiguous ShardSize ranges. The decomposition
// depends only on (N, ShardSize), never on the worker pool, so the shard
// list — and therefore the merged result — is invariant in worker count.
func (t Task) shards() [][2]int {
	size := t.ShardSize
	if size <= 0 {
		size = t.N
	}
	var out [][2]int
	for lo := 0; lo < t.N; lo += size {
		hi := lo + size
		if hi > t.N {
			hi = t.N
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// canonical resolves the addressing bytes.
func (t Task) canonical() []byte {
	if t.Canonical != nil {
		return t.Canonical
	}
	return t.Spec
}
