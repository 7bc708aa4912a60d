// Package hashagg implements the textbook HASHAGGREGATION operator the
// paper builds on: an open-addressing hash table with linear probing,
// power-of-two capacity, and identity hashing of uint32 keys (the paper
// uses identity hashing because dense key ranges are common in column
// stores due to domain encoding; multiplicative hashing is provided for
// the ablation the paper mentions in Section VI-A).
//
// The table is generic over the aggregate payload type A, so the same
// operator runs on built-in floats, DECIMALs, reproducible types, and
// buffered reproducible types — exactly the drop-in property of
// Section IV.
package hashagg

import (
	"cmp"
	"slices"
)

// Hash selects the hash function applied to keys.
type Hash int

const (
	// Identity uses the key itself (the paper's IDENTITYHASHING).
	Identity Hash = iota
	// Multiplicative uses Fibonacci hashing (Knuth's multiplicative
	// method); "using a real hash function would make all algorithms
	// slower by the same constant" (Section VI-A).
	Multiplicative
)

// Adder is the interface the aggregation loop requires from a pointer
// to an aggregate payload: fold one value in.
type Adder[V any] interface{ Add(V) }

// Merger is required for combining per-thread aggregates.
type Merger[A any] interface{ MergeFrom(*A) }

// Table is an open-addressing aggregation hash table mapping uint32 keys
// to aggregate payloads of type A. Not safe for concurrent writes; the
// partitioned operator gives each goroutine a private table.
type Table[A any] struct {
	keys  []uint32
	used  []bool
	aggs  []A
	mask  uint32
	n     int
	hash  Hash
	newA  func() A
	stale []bool   // slots with a recyclable (allocated but cleared) payload
	order []uint32 // ForEachSorted's scratch: the used slots, by key
}

// home returns key's home slot.
func (t *Table[A]) home(key uint32) uint32 {
	if t.hash == Identity {
		return key & t.mask
	}
	return (key * 2654435761) >> 7 & t.mask
}

// New returns a table pre-sized for about hint entries. newA initializes
// the payload of a freshly inserted key (lazily, on first insert).
func New[A any](hint int, hash Hash, newA func() A) *Table[A] {
	capacity := 16
	for capacity < hint*2 {
		capacity <<= 1
	}
	return &Table[A]{
		keys:  make([]uint32, capacity),
		used:  make([]bool, capacity),
		aggs:  make([]A, capacity),
		stale: make([]bool, capacity),
		mask:  uint32(capacity - 1),
		hash:  hash,
		newA:  newA,
	}
}

// Len returns the number of distinct keys in the table.
func (t *Table[A]) Len() int { return t.n }

// Cap returns the current slot capacity.
func (t *Table[A]) Cap() int { return len(t.keys) }

// Upsert returns the payload slot for key, inserting and initializing
// it if absent. The returned pointer is invalidated by the next Upsert
// (the table may grow).
func (t *Table[A]) Upsert(key uint32) *A {
	i := t.home(key)
	for t.used[i] {
		if t.keys[i] == key {
			return &t.aggs[i]
		}
		i = (i + 1) & t.mask
	}
	if t.n >= len(t.keys)*7/10 {
		t.grow()
		// Re-probe in the grown table.
		i = t.home(key)
		for t.used[i] {
			if t.keys[i] == key {
				return &t.aggs[i]
			}
			i = (i + 1) & t.mask
		}
	}
	t.used[i] = true
	t.keys[i] = key
	if t.stale[i] {
		t.stale[i] = false
		if r, ok := any(&t.aggs[i]).(Resettable); ok {
			r.Reset()
		} else {
			t.aggs[i] = t.newA()
		}
	} else {
		t.aggs[i] = t.newA()
	}
	t.n++
	return &t.aggs[i]
}

// Get returns the payload for key, or nil if absent.
func (t *Table[A]) Get(key uint32) *A {
	i := t.home(key)
	for t.used[i] {
		if t.keys[i] == key {
			return &t.aggs[i]
		}
		i = (i + 1) & t.mask
	}
	return nil
}

func (t *Table[A]) grow() {
	oldKeys, oldUsed, oldAggs := t.keys, t.used, t.aggs
	capacity := len(oldKeys) * 2
	t.keys = make([]uint32, capacity)
	t.used = make([]bool, capacity)
	t.aggs = make([]A, capacity)
	t.stale = make([]bool, capacity)
	t.mask = uint32(capacity - 1)
	for i, u := range oldUsed {
		if !u {
			continue
		}
		j := t.home(oldKeys[i])
		for t.used[j] {
			j = (j + 1) & t.mask
		}
		t.used[j] = true
		t.keys[j] = oldKeys[i]
		t.aggs[j] = oldAggs[i]
	}
}

// ForEach visits every (key, payload) pair in slot order. Slot order
// depends on insertion history; callers needing a canonical order sort
// the keys themselves (GROUPBY output is a set).
func (t *Table[A]) ForEach(fn func(key uint32, a *A)) {
	for i, u := range t.used {
		if u {
			fn(t.keys[i], &t.aggs[i])
		}
	}
}

// ForEachSorted visits every (key, payload) pair in ascending key
// order. Identity tables over a key range no wider than the table — the
// dense domain-encoded keys of a column store, whole or one range
// partition of them — already hold their keys in slot order, which one
// pass over the slots establishes; only otherwise are the used slots
// (4 bytes each, not the payloads) sorted.
func (t *Table[A]) ForEachSorted(fn func(key uint32, a *A)) {
	t.order = t.order[:0]
	sorted, prev := true, uint32(0)
	for i, u := range t.used {
		if u {
			sorted = sorted && prev <= t.keys[i]
			prev = t.keys[i]
			t.order = append(t.order, uint32(i))
		}
	}
	if !sorted {
		slices.SortFunc(t.order, func(a, b uint32) int { return cmp.Compare(t.keys[a], t.keys[b]) })
	}
	for _, i := range t.order {
		fn(t.keys[i], &t.aggs[i])
	}
}

// Aggregate is the HASHAGGREGATION inner loop: for every ⟨key, value⟩
// pair, look up the group's aggregate and fold the value in. The PA
// constraint statically binds the payload's Add method.
func Aggregate[V any, A any, PA interface {
	*A
	Adder[V]
}](t *Table[A], keys []uint32, vals []V) {
	if len(keys) != len(vals) {
		panic("hashagg: keys and values must have equal length")
	}
	for i, k := range keys {
		PA(t.Upsert(k)).Add(vals[i])
	}
}

// MergeTables folds src into dst group-wise (the transfer to the shared
// table of Algorithm 4, lines 4–6).
func MergeTables[A any, PA interface {
	*A
	Merger[A]
}](dst, src *Table[A]) {
	src.ForEach(func(key uint32, a *A) {
		PA(dst.Upsert(key)).MergeFrom(a)
	})
}

// Resettable payloads can be recycled in place when a table is reused
// across partitions — this is what keeps buffered reproducible
// aggregation from reallocating its summation buffers for every
// partition (the paper's implementation reuses the per-thread table
// memory the same way).
type Resettable interface{ Reset() }

// Clear marks every slot unused but keeps slot payloads allocated, so a
// worker can reuse one table (and the buffers inside its payloads) for
// many partitions. Payloads of previously used slots are recycled via
// Resettable when the slot is next inserted; non-Resettable payloads
// are simply overwritten by newA.
func (t *Table[A]) Clear() {
	for i := range t.used {
		if t.used[i] {
			t.used[i] = false
			t.stale[i] = true
		}
	}
	t.n = 0
}
