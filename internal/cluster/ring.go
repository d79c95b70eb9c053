package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"doppelganger/internal/engine"
)

// vnodes is the number of virtual nodes per worker. 64 points per worker
// keeps the expected load imbalance across a handful of workers within a
// few percent while membership changes stay cheap.
const vnodes = 64

// ring is an immutable consistent-hash ring: worker IDs placed at vnode
// points on a uint64 circle. Jobs map to the first point at or after their
// key's hash. Rebuilt (not mutated) on membership change.
type ring struct {
	points []ringPoint // sorted by hash
	ids    []string    // distinct member IDs, sorted
}

type ringPoint struct {
	hash uint64
	id   string
}

// newRing places each id at vnodes points derived from SHA-256(id, vnode).
func newRing(ids []string) *ring {
	r := &ring{ids: append([]string(nil), ids...)}
	sort.Strings(r.ids)
	r.points = make([]ringPoint, 0, len(ids)*vnodes)
	for _, id := range r.ids {
		for v := 0; v < vnodes; v++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", id, v)))
			r.points = append(r.points, ringPoint{
				hash: binary.BigEndian.Uint64(sum[:8]),
				id:   id,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id
	})
	return r
}

// keyPoint maps an engine cache key onto the circle. Keys are hex SHA-256
// digests, already uniformly distributed; the first 16 hex digits are the
// point. A malformed key (impossible for engine-produced keys) hashes to 0.
func keyPoint(key engine.Key) uint64 {
	var p uint64
	for i := 0; i < 16 && i < len(key); i++ {
		c := key[i]
		switch {
		case c >= '0' && c <= '9':
			p = p<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			p = p<<4 | uint64(c-'a'+10)
		case c >= 'A' && c <= 'F':
			p = p<<4 | uint64(c-'A'+10)
		default:
			return 0
		}
	}
	return p
}

// owners returns up to n distinct worker IDs for key, in preference order:
// the key's primary owner first, then successive distinct successors
// clockwise around the ring (the retry order on worker failure).
func (r *ring) owners(key engine.Key, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.ids) {
		n = len(r.ids)
	}
	p := keyPoint(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= p })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		pt := r.points[(start+i)%len(r.points)]
		if !seen[pt.id] {
			seen[pt.id] = true
			out = append(out, pt.id)
		}
	}
	return out
}

// members returns the distinct worker IDs on the ring, sorted.
func (r *ring) members() []string { return r.ids }
