package hashagg

import (
	"testing"
	"testing/quick"

	"repro/internal/partition"
	"repro/internal/workload"
)

type sumAcc float64

func (s *sumAcc) Add(v float64)       { *s += sumAcc(v) }
func (s *sumAcc) MergeFrom(o *sumAcc) { *s += *o }

func newSum() sumAcc { return 0 }

func TestUpsertGetBasics(t *testing.T) {
	tb := New[sumAcc](4, Identity, newSum)
	*tb.Upsert(1) += 10
	*tb.Upsert(2) += 20
	*tb.Upsert(1) += 1
	if tb.Len() != 2 {
		t.Errorf("Len = %d", tb.Len())
	}
	if got := *tb.Get(1); got != 11 {
		t.Errorf("Get(1) = %v", got)
	}
	if got := *tb.Get(2); got != 20 {
		t.Errorf("Get(2) = %v", got)
	}
	if tb.Get(3) != nil {
		t.Error("Get(3) should be nil")
	}
}

func TestKeyZeroWorks(t *testing.T) {
	// Key 0 must be a first-class key (no sentinel confusion).
	tb := New[sumAcc](4, Identity, newSum)
	*tb.Upsert(0) += 5
	*tb.Upsert(0) += 5
	if got := *tb.Get(0); got != 10 {
		t.Errorf("key 0 aggregate = %v", got)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestGrowthPreservesAggregates(t *testing.T) {
	tb := New[sumAcc](4, Identity, newSum)
	const n = 10000
	for i := 0; i < n; i++ {
		*tb.Upsert(uint32(i % 1000)) += 1
	}
	if tb.Len() != 1000 {
		t.Fatalf("Len = %d", tb.Len())
	}
	for k := uint32(0); k < 1000; k++ {
		if got := *tb.Get(k); got != n/1000 {
			t.Fatalf("key %d = %v, want %d", k, got, n/1000)
		}
	}
}

func TestMatchesMapReference(t *testing.T) {
	f := func(seed uint64, hashSel bool) bool {
		h := Identity
		if hashSel {
			h = Multiplicative
		}
		keys := workload.Keys(seed, 2000, 97) // non-power-of-two group count
		vals := workload.Values64(seed+1, 2000, workload.Exp1)
		tb := New[sumAcc](8, h, newSum)
		Aggregate[float64, sumAcc](tb, keys, vals)
		ref := make(map[uint32]float64)
		for i, k := range keys {
			ref[k] += vals[i]
		}
		if tb.Len() != len(ref) {
			return false
		}
		okAll := true
		tb.ForEach(func(key uint32, a *sumAcc) {
			if float64(*a) != ref[key] {
				okAll = false
			}
		})
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAdversarialClusteredKeys(t *testing.T) {
	// Identity hashing with clustered keys forces long probe chains;
	// correctness must not degrade.
	tb := New[sumAcc](4, Identity, newSum)
	for round := 0; round < 3; round++ {
		for k := uint32(0); k < 512; k++ {
			*tb.Upsert(k * 1024) += 1 // all collide to slot 0 in a small table
		}
	}
	if tb.Len() != 512 {
		t.Fatalf("Len = %d", tb.Len())
	}
	for k := uint32(0); k < 512; k++ {
		if got := *tb.Get(k * 1024); got != 3 {
			t.Fatalf("key %d = %v", k*1024, got)
		}
	}
}

func TestMergeTables(t *testing.T) {
	a := New[sumAcc](4, Identity, newSum)
	b := New[sumAcc](4, Identity, newSum)
	*a.Upsert(1) += 1
	*a.Upsert(2) += 2
	*b.Upsert(2) += 20
	*b.Upsert(3) += 30
	MergeTables[sumAcc](a, b)
	if *a.Get(1) != 1 || *a.Get(2) != 22 || *a.Get(3) != 30 {
		t.Errorf("merge result wrong: %v %v %v", *a.Get(1), *a.Get(2), *a.Get(3))
	}
}

func TestAggregateLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	tb := New[sumAcc](4, Identity, newSum)
	Aggregate[float64, sumAcc](tb, []uint32{1}, []float64{1, 2})
}

func TestHashFunctions(t *testing.T) {
	// Multiplicative must spread consecutive keys; identity must not.
	mul := New[sumAcc](128, Multiplicative, newSum) // 256 slots
	slots := make(map[uint32]bool)
	for k := uint32(0); k < 100; k++ {
		slots[mul.home(k*256)] = true
	}
	if len(slots) < 50 {
		t.Errorf("multiplicative hashing collapsed: %d distinct slots", len(slots))
	}
	if New[sumAcc](128, Identity, newSum).home(42) != 42 {
		t.Error("identity hash changed the key")
	}
	// A partitioned identity table indexes by the bits above the ones
	// the partitioning pass consumed; the other hashes ignore them.
	if got := NewPartitioned[sumAcc](128, Identity, newSum, 8).home(42<<8 | 7); got != 42 {
		t.Errorf("partitioned identity: home slot %d, want 42", got)
	}
	if NewPartitioned[sumAcc](128, Multiplicative, newSum, 8).home(12345) != mul.home(12345) {
		t.Error("multiplicative hashing must not depend on the partition bits")
	}
	if NewPartitioned[sumAcc](128, Identity, newSum, 0).home(42) != 42 {
		t.Error("zero partition bits must be plain identity")
	}
}

// TestPartitionHomeSlots is the structural form of "partitioning pays":
// dense keys routed by partition.Do on their low byte, aggregated in a
// table sized by DistinctBound, all sit in their home slot — no probe
// chain at all — and the same keys in a plain Identity table pile onto
// the couple of slots the constant low byte leaves.
func TestPartitionHomeSlots(t *testing.T) {
	const fanout, groups = 256, 1 << 16
	keys := make([]uint32, groups)
	for i := range keys {
		keys[i] = uint32(i)
	}
	workload.Shuffle(3, keys)
	part := partition.Do(keys, keys, 0, fanout, 1)
	for _, p := range []int{0, 1, 77, 255} {
		pk, _ := part.Partition(p)
		tb := NewPartitioned[sumAcc](part.DistinctBound(p, fanout), Identity, newSum, 8)
		plain := New[sumAcc](part.DistinctBound(p, fanout), Identity, newSum)
		for _, k := range pk {
			if k%fanout != uint32(p) {
				t.Fatalf("partition %d holds key %d", p, k)
			}
			*tb.Upsert(k)++
			*plain.Upsert(k)++
		}
		displaced := func(tb *Table[sumAcc]) (n int) {
			for i, u := range tb.used {
				if u && tb.home(tb.keys[i]) != uint32(i) {
					n++
				}
			}
			return n
		}
		if tb.Len() != len(pk) || tb.Cap() != 2*len(pk) {
			t.Fatalf("partition %d: %d keys in %d slots, want %d in %d (no growth)", p, tb.Len(), tb.Cap(), len(pk), 2*len(pk))
		}
		if n := displaced(tb); n != 0 {
			t.Errorf("partition %d: %d of %d keys off their home slot", p, n, len(pk))
		}
		if n := displaced(plain); n < len(pk)-tb.Cap()/fanout-1 {
			t.Errorf("partition %d: plain identity displaced only %d of %d keys; the test lost its contrast", p, n, len(pk))
		}
	}
}

type resettableAcc struct {
	sum   float64
	buf   []float64 // stands in for a summation buffer
	reset int
}

func (r *resettableAcc) Add(v float64) { r.sum += v }
func (r *resettableAcc) Reset()        { r.sum = 0; r.reset++ }

func TestClearRecyclesPayloads(t *testing.T) {
	tb := New[resettableAcc](8, Identity, func() resettableAcc {
		return resettableAcc{buf: make([]float64, 4)}
	})
	a := tb.Upsert(3)
	a.Add(5)
	bufBefore := &a.buf[0]
	tb.Clear()
	if tb.Len() != 0 {
		t.Fatal("Clear did not empty the table")
	}
	// Reinserting the same key must recycle the payload (Reset, keep buf).
	b := tb.Upsert(3)
	if b.sum != 0 || b.reset != 1 {
		t.Errorf("payload not reset: %+v", *b)
	}
	if &b.buf[0] != bufBefore {
		t.Error("buffer was reallocated instead of recycled")
	}
	// A different key hitting a fresh slot gets a new payload.
	c := tb.Upsert(4)
	if c.reset != 0 || c.buf == nil {
		t.Errorf("fresh payload wrong: %+v", *c)
	}
}

func TestClearWithNonResettable(t *testing.T) {
	tb := New[sumAcc](8, Identity, newSum)
	*tb.Upsert(1) += 7
	tb.Clear()
	if got := *tb.Upsert(1); got != 0 {
		t.Errorf("non-resettable payload not reinitialized: %v", got)
	}
}

func TestClearRepeatedPartitions(t *testing.T) {
	// Simulate the worker loop: many partitions through one table.
	tb := New[sumAcc](8, Identity, newSum)
	for part := 0; part < 50; part++ {
		for k := uint32(0); k < 20; k++ {
			*tb.Upsert(k) += 1
		}
		if tb.Len() != 20 {
			t.Fatalf("partition %d: len %d", part, tb.Len())
		}
		tb.ForEach(func(key uint32, a *sumAcc) {
			if *a != 1 {
				t.Fatalf("partition %d key %d: %v", part, key, *a)
			}
		})
		tb.Clear()
	}
}

// TestForEachSorted: keys are visited in ascending order with their own
// payloads whatever order the slots hold them in — in slot order for a
// dense range (also after Clear and reuse), wrapped around the table's
// end, displaced by collisions, and scattered by the multiplicative
// hash.
func TestForEachSorted(t *testing.T) {
	for name, tc := range map[string]struct {
		hash Hash
		key  func(i uint32) uint32
	}{
		"dense":          {Identity, func(i uint32) uint32 { return i }},
		"wrapped":        {Identity, func(i uint32) uint32 { return 1000 + i }}, // 200 keys across a multiple of the 512 slots
		"colliding":      {Identity, func(i uint32) uint32 { return i << 9 }},
		"multiplicative": {Multiplicative, func(i uint32) uint32 { return i * 7 }},
	} {
		tb := New[sumAcc](200, tc.hash, newSum)
		for round := 0; round < 2; round++ {
			tb.Clear()
			for i := uint32(0); i < 200; i++ {
				*tb.Upsert(tc.key(199 - i)) += sumAcc(tc.key(199 - i))
			}
			var prev int64 = -1
			n := 0
			tb.ForEachSorted(func(key uint32, a *sumAcc) {
				if int64(key) <= prev || *a != sumAcc(key) {
					t.Fatalf("%s: key %d (payload %v) visited after %d", name, key, *a, prev)
				}
				prev, n = int64(key), n+1
			})
			if n != 200 {
				t.Fatalf("%s: visited %d of 200 keys", name, n)
			}
		}
	}
}
