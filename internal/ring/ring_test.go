package ring

import (
	"fmt"
	"testing"
)

// Lookup returns the node owning key (the key's primary). ok is false on
// an empty ring.
func (r *Ring) Lookup(key string) (node string, ok bool) {
	owners := r.LookupN(key, 1)
	if len(owners) == 0 {
		return "", false
	}
	return owners[0], true
}

func TestEmptyRing(t *testing.T) {
	r := New()
	if _, ok := r.Lookup("k"); ok {
		t.Fatal("Lookup on empty ring should report !ok")
	}
	if got := r.LookupN("k", 2); got != nil {
		t.Fatalf("LookupN on empty ring = %v, want nil", got)
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d, want 0", r.Len())
	}
}

func TestDeterministicPlacement(t *testing.T) {
	build := func() *Ring {
		r := New(WithSeed(42), WithVirtualNodes(64))
		// Insertion order must not matter.
		return r
	}
	a := build()
	a.Add("n0", "n1", "n2", "n3")
	b := build()
	b.Add("n3", "n1")
	b.Add("n0")
	b.Add("n2")
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		ga, gb := a.LookupN(key, 3), b.LookupN(key, 3)
		if len(ga) != len(gb) {
			t.Fatalf("key %q: lens differ %v vs %v", key, ga, gb)
		}
		for j := range ga {
			if ga[j] != gb[j] {
				t.Fatalf("key %q: replica sets differ %v vs %v", key, ga, gb)
			}
		}
	}
}

func TestSeedChangesPlacement(t *testing.T) {
	a := New(WithSeed(1))
	b := New(WithSeed(2))
	a.Add("n0", "n1", "n2", "n3")
	b.Add("n0", "n1", "n2", "n3")
	diff := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		pa, _ := a.Lookup(key)
		pb, _ := b.Lookup(key)
		if pa != pb {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical placement for all 200 keys")
	}
}

func TestLookupNDistinct(t *testing.T) {
	r := New(WithSeed(7))
	r.Add("a", "b", "c", "d", "e")
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%d", i)
		owners := r.LookupN(key, 3)
		if len(owners) != 3 {
			t.Fatalf("key %q: got %d owners, want 3", key, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %q: duplicate owner in %v", key, owners)
			}
			seen[o] = true
		}
	}
	// Asking for more replicas than members returns every member.
	if got := r.LookupN("k", 99); len(got) != 5 {
		t.Fatalf("LookupN(99) = %v, want all 5 members", got)
	}
}

func TestBalance(t *testing.T) {
	r := New(WithSeed(11), WithVirtualNodes(128))
	const nodes = 4
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("n%d", i))
	}
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		owner, _ := r.Lookup(fmt.Sprintf("key-%d", i))
		counts[owner]++
	}
	mean := float64(keys) / nodes
	for node, c := range counts {
		ratio := float64(c) / mean
		if ratio < 0.5 || ratio > 1.5 {
			t.Fatalf("node %s owns %d/%d keys (%.2fx mean) — ring badly unbalanced: %v",
				node, c, keys, ratio, counts)
		}
	}
}

func TestMinimalMovement(t *testing.T) {
	r := New(WithSeed(3))
	r.Add("n0", "n1", "n2", "n3")
	const keys = 2000
	before := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k], _ = r.Lookup(k)
	}
	r.Add("n4")
	moved := 0
	for k, was := range before {
		now, _ := r.Lookup(k)
		if now != was {
			if now != "n4" {
				t.Fatalf("key %q moved %s -> %s, but only moves to the new node are allowed", k, was, now)
			}
			moved++
		}
	}
	// Adding a 5th node should claim roughly 1/5 of the space, certainly
	// far less than a naive mod-N rehash (which moves ~4/5).
	if moved == 0 || moved > keys/2 {
		t.Fatalf("adding one node moved %d/%d keys; want (0, %d]", moved, keys, keys/2)
	}

}

func TestAddIdempotent(t *testing.T) {
	r := New()
	r.Add("a", "a", "b")
	r.Add("a")
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if got := len(r.points); got != 2*defaultVirtualNodes {
		t.Fatalf("points = %d, want %d (duplicate Add must not add points)", got, 2*defaultVirtualNodes)
	}
}

func TestNodesSorted(t *testing.T) {
	r := New()
	r.Add("zeta", "alpha", "mid")
	got := r.Nodes()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nodes() = %v, want %v", got, want)
		}
	}
}
