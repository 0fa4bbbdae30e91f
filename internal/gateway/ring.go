package gateway

import (
	"sort"
	"strconv"

	"repro/internal/shardmap"
)

// ring is a consistent-hash ring over backend base URLs. Each backend is
// placed at defaultVnodes pseudo-random points (virtual nodes) on a 64-bit
// circle; a request key routes to the first backend clockwise from its
// hash. Adding or removing one backend therefore remaps only the keys
// that hashed into its arcs — the property that keeps each replica's
// response cache warm when the healthy set changes, instead of reshuffling
// every key as modulo hashing would.
//
// The ring always contains every mounted backend, healthy or not: health
// is applied at lookup time by walking the failover sequence and skipping
// nodes whose circuit is open, so a node's recovery restores exactly its
// old arcs.
type ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// defaultVnodes balances distribution evenness against lookup table size
// for the single-digit fleets a portal federation runs.
const defaultVnodes = 64

// buildRing places each node at defaultVnodes points.
func buildRing(nodes []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(nodes)*defaultVnodes)}
	for _, n := range nodes {
		for i := 0; i < defaultVnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash: shardmap.Hash(n + "#" + strconv.Itoa(i)),
				node: n,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// sequence appends to dst the distinct nodes encountered walking the ring
// clockwise from key — the primary assignment first, then the failover
// order. Every mounted node appears exactly once.
func (r *ring) sequence(key uint64, dst []string) []string {
	if len(r.points) == 0 {
		return dst
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !containsNode(dst, p.node) {
			dst = append(dst, p.node)
		}
	}
	return dst
}

func containsNode(nodes []string, n string) bool {
	for _, v := range nodes {
		if v == n {
			return true
		}
	}
	return false
}

// hashBytes is FNV-1a over raw bytes — shardmap.Hash without the string
// conversion, which would copy every request body just to route it.
func hashBytes(seed uint64, data []byte) uint64 {
	const prime64 = 1099511628211
	h := seed
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// fnvOffset64 is the FNV-1a offset basis, the seed for request-key hashes.
const fnvOffset64 = 14695981039346656037
