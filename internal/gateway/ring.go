// Package gateway is the horizontally scaled serving tier: an HTTP
// routing layer that fronts N btserve replicas and makes them behave as
// one content-addressed cache.
//
// Every response in this repository is a pure function of its
// canonicalized request, content-addressed by a hex SHA-256 — so the
// gateway can route by consistent hash over that address and give each
// cache key exactly one "home" replica. A key's traffic concentrates
// where its cached bytes live, the tier-wide hit rate approaches a
// single process's, and adding a replica only re-homes the keys on the
// ring segments it claims. A miss is never fetched from another
// replica: whoever is asked computes, and determinism makes the bytes
// the same.
//
// Routing is the bounded-load variant of consistent hashing: a key
// normally goes to its home replica, but when the home's in-flight
// share exceeds the load factor the request spills to the next replica
// on the ring — hot keys cannot capsize one node while others idle.
// Replica failures feed a strike/quarantine book (internal/health),
// which is also the per-replica circuit breaker: quarantine is the open
// state, its expiry is the half-open probe, and a clean window closes
// it.
package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVNodes is the default number of virtual nodes per replica.
// 64 vnodes keeps the peak-to-mean key share under ~1.3 for small
// replica counts, which is tighter than the bounded-load factor — so
// placement skew never triggers spills by itself.
const DefaultVNodes = 64

// Ring is an immutable consistent-hash ring over replica indices.
type Ring struct {
	n      int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	replica int
}

// NewRing places vnodes points per replica on the ring. Replica
// identity is positional: hashing uses the replica's name (its base
// URL), so the same replica set always yields the same placement
// regardless of flag order elsewhere.
func NewRing(replicas []string, vnodes int) (*Ring, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("gateway: ring needs at least one replica")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(replicas))
	r := &Ring{n: len(replicas), points: make([]ringPoint, 0, len(replicas)*vnodes)}
	for i, name := range replicas {
		if name == "" {
			return nil, fmt.Errorf("gateway: empty replica name at index %d", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("gateway: duplicate replica %q", name)
		}
		seen[name] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(fmt.Sprintf("%s#%d", name, v)),
				replica: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].replica < r.points[b].replica
	})
	return r, nil
}

// hash64 is the ring's placement and lookup hash: the first 8 bytes of
// SHA-256, matching the content-address discipline (keys are already
// SHA-256 hex; hashing again decorrelates ring position from key
// prefix). A key is copied to the stack, not converted onto the heap.
func hash64(s string) uint64 {
	var buf [2 * sha256.Size]byte
	sum := sha256.Sum256(append(buf[:0], s...))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the home replica index for a content-addressed key:
// the replica owning the first ring point at or after the key's hash.
func (r *Ring) Owner(key string) int {
	return r.points[r.successor(key)].replica
}

// Walk returns all replica indices in ring-successor order starting at
// the key's home: the order bounded-load spill and quarantine fallback
// both follow. The slice is freshly allocated and contains each replica
// exactly once.
func (r *Ring) Walk(key string) []int {
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i := r.successor(key); len(out) < r.n; i++ {
		p := r.points[i%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, p.replica)
		}
	}
	return out
}

func (r *Ring) successor(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
