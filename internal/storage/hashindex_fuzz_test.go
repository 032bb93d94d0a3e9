package storage

import "testing"

// FuzzHashIndexMultiGet drives a HashIndex through an input-chosen
// sequence of Puts, overwrites, and Deletes over a small key space —
// starting from the minimum bucket count, so growth and tombstone-heavy
// in-place rehashes occur — and then checks MultiGet against a map
// model for every key of the space, in batches that straddle the probe
// group width. Each input byte pair is one mutation: the first byte
// selects the operation and the value, the second the key.
func FuzzHashIndexMultiGet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 0, 3})
	f.Add([]byte{0, 5, 0x81, 5, 0, 5, 0x80, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const keySpace = 256
		h := NewHashIndex(0)
		model := map[uint64]uint64{}
		for i := 0; i+1 < len(ops); i += 2 {
			op, key := ops[i], uint64(ops[i+1])
			// Spread keys over the high bits too, so tags and home
			// buckets both vary.
			key = key*0x9e3779b97f4a7c15>>8 | key
			if op&0x80 != 0 {
				_, had := model[key]
				if got := h.Delete(key); got != had {
					t.Fatalf("op %d: Delete(%d) = %v, model %v", i/2, key, got, had)
				}
				delete(model, key)
				continue
			}
			val := uint64(op) * 1000003
			_, had := model[key]
			if isNew := h.Put(key, val); isNew == had {
				t.Fatalf("op %d: Put(%d) new = %v, model had %v", i/2, key, isNew, had)
			}
			model[key] = val
		}
		if h.Len() != len(model) {
			t.Fatalf("Len = %d, model %d", h.Len(), len(model))
		}
		keys := make([]uint64, 0, keySpace+1)
		for k := uint64(0); k < keySpace; k++ {
			keys = append(keys, k*0x9e3779b97f4a7c15>>8|k)
		}
		keys = append(keys, 1<<63) // never inserted
		for _, n := range []int{1, multiGetGroup - 1, multiGetGroup, multiGetGroup + 1, len(keys)} {
			for base := 0; base < len(keys); base += n {
				batch := keys[base:min(base+n, len(keys))]
				vals := make([]uint64, len(batch))
				found := make([]bool, len(batch))
				for i := range vals {
					vals[i], found[i] = 7, true // stale contents must be overwritten
				}
				h.MultiGet(batch, vals, found)
				for i, k := range batch {
					want, ok := model[k]
					if found[i] != ok || vals[i] != want {
						t.Fatalf("MultiGet key %d = (%d,%v), model (%d,%v)", k, vals[i], found[i], want, ok)
					}
				}
			}
		}
	})
}
