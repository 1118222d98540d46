// Package ring implements a consistent-hash ring with virtual nodes, the
// key-placement substrate for the distributed cloud store. Each physical
// node is projected onto the ring at VirtualNodes pseudo-random points
// (derived deterministically from the node name and a placement seed), a
// key maps to the first point at or clockwise after its hash, and the R
// replicas of a key are the first R *distinct* nodes encountered walking
// clockwise. Virtual nodes smooth the load split (the classic consistent
// hashing result: with k·log(n) points per node the max/mean load ratio
// approaches 1), and make adding a node move only ~1/n of the key space.
//
// Placement is fully deterministic for a given (member set, VirtualNodes,
// Seed) triple — two clients configured identically agree on every key's
// replica set without coordination, which is what lets the sharded store
// client route without a metadata service.
package ring

import (
	"hash/fnv"
	"sort"
	"sync"
)

// defaultVirtualNodes is the per-node point count used when the option is
// left zero. 64 points per node keeps the max/mean shard imbalance under
// ~15% for small clusters while keeping Add cost trivial.
const defaultVirtualNodes = 64

// point is one virtual node: a position on the ring owned by a node.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring. It is safe for concurrent use; lookups
// take a read lock only.
type Ring struct {
	vnodes int
	seed   uint64

	mu     sync.RWMutex
	points []point // sorted by (hash, node)
	nodes  map[string]struct{}
}

// Option configures a Ring.
type Option func(*Ring)

// WithVirtualNodes sets how many points each node projects onto the ring
// (default defaultVirtualNodes). Higher is smoother and slightly slower to
// mutate; lookups stay O(log points) regardless.
func WithVirtualNodes(n int) Option {
	return func(r *Ring) {
		if n > 0 {
			r.vnodes = n
		}
	}
}

// WithSeed sets the placement seed. Clients that must agree on placement
// must share the seed (and the virtual-node count).
func WithSeed(seed uint64) Option {
	return func(r *Ring) { r.seed = seed }
}

// New returns an empty ring.
func New(opts ...Option) *Ring {
	r := &Ring{vnodes: defaultVirtualNodes, nodes: make(map[string]struct{})}
	for _, o := range opts {
		o(r)
	}
	return r
}

// hashPoint hashes one virtual node (node name + point index + seed) onto
// the ring. FNV-1a over the raw bytes keeps placement identical across
// processes and platforms; the splitmix finalizer fixes FNV's weak
// avalanche on trailing bytes (without it, points for sequential vnode
// indices cluster and the ring balances badly).
func (r *Ring) hashPoint(node string, idx int) uint64 {
	h := fnv.New64a()
	var b [16]byte
	enc64(b[:8], r.seed)
	enc64(b[8:], uint64(idx))
	_, _ = h.Write([]byte(node))
	_, _ = h.Write(b[:])
	return mix64(h.Sum64())
}

// hashKey hashes a key onto the ring (seed folded in, so two rings with
// different seeds disagree on placement as well as point positions).
func (r *Ring) hashKey(key string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	enc64(b[:], r.seed)
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler with full
// avalanche, applied on top of FNV so ring positions are uniform even for
// structured inputs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func enc64(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> (8 * i))
	}
}

// Add inserts nodes into the ring. Adding a member twice is a no-op, so
// membership can be reasserted idempotently.
func (r *Ring) Add(nodes ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	changed := false
	for _, node := range nodes {
		if _, ok := r.nodes[node]; ok {
			continue
		}
		r.nodes[node] = struct{}{}
		for i := 0; i < r.vnodes; i++ {
			r.points = append(r.points, point{hash: r.hashPoint(node, i), node: node})
		}
		changed = true
	}
	if changed {
		sort.Slice(r.points, func(i, j int) bool {
			if r.points[i].hash != r.points[j].hash {
				return r.points[i].hash < r.points[j].hash
			}
			// Hash ties (vanishingly rare at 64 bits) break by name so
			// placement stays deterministic across insertion orders.
			return r.points[i].node < r.points[j].node
		})
	}
}

// Len returns the number of member nodes.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Nodes returns the members in sorted order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// LookupN returns the first n distinct nodes at or clockwise after key's
// hash — the key's replica set, primary first. Fewer than n members
// returns them all. The walk wraps at the top of the ring.
func (r *Ring) LookupN(key string, n int) []string {
	if n < 1 {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := r.hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}
