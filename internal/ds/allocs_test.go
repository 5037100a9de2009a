package ds

import (
	"testing"

	"ibr/internal/allocgate"
	"ibr/internal/core"
)

// TestHashMapAllocs gates the hash map's steady-state operations at zero
// heap allocations. Get, a successful Insert and a successful Remove each
// run inside one Guarded.Do bracket, and neither the bracket's Guard nor
// its closure may escape. Node memory comes from the scheme's pool, not
// the Go heap, and the retire backlog reuses its arrays: the churn case
// removes keys inserted at different times, so a scan empties many small
// birth-epoch buckets at once and the next retirements open as many again.
func TestHashMapAllocs(t *testing.T) {
	for _, scheme := range []string{"tagibr", "2geibr", "ebr", "hp"} {
		t.Run(scheme, func(t *testing.T) {
			// A short epoch makes the churned keys' births span many
			// retire buckets.
			m, err := NewMap("hashmap", Config{Scheme: scheme, Core: core.Options{Threads: 1, EpochFreq: 4}})
			if err != nil {
				t.Fatal(err)
			}
			const keys = 4096
			fill := make([]KV, keys)
			for k := range fill {
				fill[k] = KV{Key: uint64(k), Val: uint64(k)}
			}
			m.Fill(fill)
			t.Run("hot", func(t *testing.T) {
				allocgate.Check(t, 0, func() {
					if _, ok := m.Get(0, 1); !ok {
						t.Fatal("Get lost key 1")
					}
					if !m.Insert(0, keys, 0) || !m.Remove(0, keys) {
						t.Fatal("Insert/Remove of a fresh key failed")
					}
				})
			})
			t.Run("churn", func(t *testing.T) {
				rng := uint64(1)
				churn := func() {
					for i := 0; i < 8; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						k := rng % keys
						if !m.Remove(0, k) || !m.Insert(0, k, k) {
							t.Fatalf("churn of key %d failed", k)
						}
					}
				}
				for i := 0; i < 4*keys; i++ {
					churn() // spread the keys' birth epochs
				}
				allocgate.Check(t, 0, churn)
			})
		})
	}
}
