package kvstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// TestMemoryKeysModel replays seeded random Put/Delete/Keys histories against
// the obvious model — sort the keys of a map — so the kept index can never
// return a key set the store does not hold: not after an insert, a delete, an
// overwrite, a delete of an absent key, or a caller writing into the slice a
// previous Keys returned.
func TestMemoryKeysModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMemory()
		model := map[string]bool{}
		// A small key space makes overwrites and re-inserts of deleted keys
		// common; the mix leans on Keys so many calls hit a kept index.
		space := 4 + rng.Intn(60)
		for step := 0; step < 600; step++ {
			key := fmt.Sprintf("k%03d", rng.Intn(space))
			switch op := rng.Intn(10); {
			case op < 4:
				if err := m.Put(key, []byte{byte(step)}); err != nil {
					t.Fatal(err)
				}
				model[key] = true
			case op < 6:
				if err := m.Delete(key); err != nil {
					t.Fatal(err)
				}
				delete(model, key)
			default:
				got, err := m.Keys()
				if err != nil {
					t.Fatal(err)
				}
				want := make([]string, 0, len(model))
				for k := range model {
					want = append(want, k)
				}
				sort.Strings(want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: Keys = %v, want %v", seed, step, got, want)
				}
				// The caller owns what it got: ruining it must not show
				// in the next call.
				for i := range got {
					got[i] = "scribbled"
				}
				if n, _ := m.Len(); n != len(model) {
					t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, n, len(model))
				}
			}
		}
	}
}

// TestMemoryKeysConcurrent has writers changing the key set while readers
// list it. Every listing must be sorted, free of duplicates and made only of
// keys some writer uses; once the writers stop, it must equal the final set.
// Run under -race it also checks the index hand-off between Keys calls.
func TestMemoryKeysConcurrent(t *testing.T) {
	m := NewMemory()
	const writers, perWriter = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("w%d-%02d", w, rng.Intn(perWriter))
				if rng.Intn(3) == 0 {
					_ = m.Delete(key)
				} else {
					_ = m.Put(key, []byte{1})
				}
			}
			// Leave a known final state: this writer's even keys.
			for k := 0; k < perWriter; k++ {
				key := fmt.Sprintf("w%d-%02d", w, k)
				if k%2 == 0 {
					_ = m.Put(key, []byte{2})
				} else {
					_ = m.Delete(key)
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				keys, err := m.Keys()
				if err != nil {
					t.Errorf("Keys: %v", err)
					return
				}
				for j, k := range keys {
					if j > 0 && keys[j-1] >= k {
						t.Errorf("Keys not strictly ascending at %d: %q then %q", j, keys[j-1], k)
						return
					}
					if len(k) != 5 || k[0] != 'w' {
						t.Errorf("Keys returned %q, which no writer uses", k)
						return
					}
				}
				if len(keys) > 0 {
					keys[0] = "scribbled"
				}
			}
		}()
	}
	wg.Wait()
	var want []string
	for w := 0; w < writers; w++ {
		for k := 0; k < perWriter; k += 2 {
			want = append(want, fmt.Sprintf("w%d-%02d", w, k))
		}
	}
	for i := 0; i < 2; i++ { // the second call is served from the kept index
		got, err := m.Keys()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d after the writers stopped: Keys = %v (err %v), want %v", i, got, err, want)
		}
	}
}

// BenchmarkMemoryKeys lists 2 048 keys the way a store node does under
// store-mixed (values overwritten between listings, key set unchanged) and
// under a growing store (one new key between listings).
func BenchmarkMemoryKeys(b *testing.B) {
	fill := func() *Memory {
		m := NewMemory()
		for i := 0; i < 2048; i++ {
			_ = m.Put(fmt.Sprintf("obj-%d", i), []byte("v"))
		}
		return m
	}
	b.Run("overwrite-only", func(b *testing.B) {
		m := fill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = m.Put("obj-7", []byte("w"))
			if keys, _ := m.Keys(); len(keys) != 2048 {
				b.Fatal(len(keys))
			}
		}
	})
	b.Run("insert-between", func(b *testing.B) {
		m := fill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = m.Put("extra", []byte("w"))
			if keys, _ := m.Keys(); len(keys) != 2049 {
				b.Fatal(len(keys))
			}
			_ = m.Delete("extra")
		}
	})
}
