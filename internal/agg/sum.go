package agg

import (
	"cmp"
	"slices"

	"repro/internal/partition"
	"repro/internal/rsum"
)

// GroupBySum is Aggregate for the reproducible SUM of float64 values on
// a table built for it, sumTable; finish gets each group's ⟨key, sum⟩
// in key order. bsz is every group's summation buffer (Plan's), 0 for
// none. opt.Hash is not read.
func GroupBySum[R any](keys []uint32, vals []float64, levels, bsz int, opt Options, finish func(key uint32, sum float64) R) []R {
	return operate(keys, vals, opt,
		func(hint int) *sumTable { return newSumTable(hint, levels, bsz) },
		(*sumTable).fold, (*sumTable).mergeFrom,
		func(t *sumTable) []R { return drainSum(t, finish) })
}

// maxArenaBytes caps a table's buffer arena. Plan sizes buffers so the
// expected groups' ones fill CacheBytesPerThread (Eq. 4); groups beyond
// four times that many — a group estimate far too low — add to their
// states directly, which changes their speed, never their bits.
const maxArenaBytes = 4 * CacheBytesPerThread

// A sumTable is §V-A's payload ⟨state | next | a_0 … a_bsz⟩ taken apart
// so that a row touches only what it needs: its 12-byte slot (key,
// buffer index, fill count) and one value of the buffer arena, where
// buffer b holds values [b·bsz, (b+1)·bsz). The 120-byte states, a
// column of their own, are read when a buffer fills and at the end. A
// part whose key range [lo, hi] is narrower than the table puts key k
// in slot k − lo, with no probe; any other part probes linearly from
// there, modulo the capacity.
type sumTable struct {
	slots  []sumSlot
	states []rsum.State64
	arena  []float64 // len/bsz buffers handed out, in arrival order
	bsz    int
	levels int
	n      int

	lo, mask uint32   // key k's first slot is (k − lo) & mask
	direct   bool     // that slot is k's own
	order    []uint32 // drainSum's scratch: the used slots
}

type sumSlot struct {
	key  uint32
	buf  int32 // 0 absent, −1 no buffer, else buffer index + 1
	fill int32 // values in the group's buffer
}

// newSumTable returns a table with room for about hint groups: a power
// of two of at least 2·hint slots, as hashagg.New sizes its tables.
func newSumTable(hint, levels, bsz int) *sumTable {
	capacity := 16
	for capacity < 2*hint {
		capacity <<= 1
	}
	t := &sumTable{levels: levels, bsz: bsz}
	t.resize(capacity)
	return t
}

func (t *sumTable) resize(capacity int) {
	t.slots = make([]sumSlot, capacity)
	t.states = make([]rsum.State64, capacity)
	t.mask = uint32(capacity - 1)
}

// Cap returns the slot capacity.
func (t *sumTable) Cap() int { return len(t.slots) }

// Clear empties the table for the next part, keeping its memory.
func (t *sumTable) Clear() {
	clear(t.slots)
	t.arena = t.arena[:0]
	t.n = 0
}

// fold adds a part's rows. Every key of pt lies in [pt.Lo, pt.Hi].
func (t *sumTable) fold(pt partition.Part[float64]) {
	keys, vals := pt.Keys, pt.Cols[0][:len(pt.Keys)]
	t.lo, t.direct = pt.Lo, uint64(pt.Hi-pt.Lo) < uint64(len(t.slots))
	if t.bsz == 0 {
		for i, k := range keys {
			s := (k - t.lo) & t.mask
			if e := &t.slots[s]; e.buf == 0 || e.key != k {
				s = t.find(k)
			}
			t.states[s].Add(vals[i])
		}
		return
	}
	for i := 0; i < len(keys); i++ {
		i += t.fillBuffers(keys[i:], vals[i:])
		if i < len(keys) {
			t.add(t.find(keys[i]), vals[i])
		}
	}
}

// fillBuffers is the row loop of a buffered table: a row reads its slot
// and writes one arena value. It calls nothing, and returns at the
// first row that needs more (a new group, a probe, a group without a
// buffer, or a buffer the row fills) for add to take, the number of
// rows it took.
func (t *sumTable) fillBuffers(keys []uint32, vals []float64) int {
	slots, arena := t.slots, t.arena
	lo, mask, bsz := t.lo, t.mask, int32(t.bsz)
	vals = vals[:len(keys)]
	for i, k := range keys {
		e := &slots[(k-lo)&mask]
		if e.buf <= 0 || e.fill == bsz-1 || e.key != k {
			return i
		}
		arena[int((e.buf-1)*bsz+e.fill)] = vals[i]
		e.fill++
	}
	return len(keys)
}

// add folds v into slot s's group: into its buffer, which goes through
// the vectorized kernel when it fills, or straight into its state.
func (t *sumTable) add(s uint32, v float64) {
	e := &t.slots[s]
	if e.buf < 0 {
		t.states[s].Add(v)
		return
	}
	t.arena[int(e.buf-1)*t.bsz+int(e.fill)] = v
	if e.fill++; int(e.fill) == t.bsz {
		t.flush(int(s))
	}
}

// find returns key's slot, claiming one if the key is new. A probed
// table that is 70 % full grows first.
func (t *sumTable) find(key uint32) uint32 {
	s := (key - t.lo) & t.mask
	for ; t.slots[s].buf != 0; s = (s + 1) & t.mask {
		if t.slots[s].key == key {
			return s
		}
	}
	if !t.direct && t.n >= len(t.slots)*7/10 {
		t.grow()
		return t.find(key)
	}
	t.claim(s, key)
	return s
}

// claim starts key's group in the empty slot s, with a buffer of its
// own if the table buffers and the arena has room.
func (t *sumTable) claim(s, key uint32) {
	t.n++
	t.states[s].Reset(t.levels)
	t.slots[s] = sumSlot{key: key, buf: -1}
	n := len(t.arena)
	if t.bsz == 0 || (n+t.bsz)*8 > maxArenaBytes {
		return
	}
	if n+t.bsz > cap(t.arena) { // double, up to the cap
		grown := make([]float64, n, min(max(2*n, 16*t.bsz), maxArenaBytes/8))
		t.arena = grown[:copy(grown, t.arena)]
	}
	t.arena = t.arena[:n+t.bsz]
	t.slots[s].buf = int32(n/t.bsz) + 1
}

// grow doubles a probed table, moving every group to its new slot; the
// buffers stay where they are in the arena.
func (t *sumTable) grow() {
	old := *t
	t.resize(2 * len(old.slots))
	for i, e := range old.slots {
		if e.buf != 0 {
			s := (e.key - t.lo) & t.mask
			for t.slots[s].buf != 0 {
				s = (s + 1) & t.mask
			}
			t.slots[s], t.states[s] = e, old.states[i]
		}
	}
}

// flush empties slot s's buffer into its state.
func (t *sumTable) flush(s int) {
	if e := &t.slots[s]; e.buf > 0 && e.fill > 0 {
		o := int(e.buf-1) * t.bsz
		t.states[s].AddSliceVec(t.arena[o : o+int(e.fill)])
		e.fill = 0
	}
}

// mergeFrom merges every group of o into t (the Depth 0 merge of the
// workers' tables, Algorithm 4 lines 4–6).
func (t *sumTable) mergeFrom(o *sumTable) {
	for i, e := range o.slots {
		if e.buf != 0 {
			o.flush(i)
			t.states[t.find(e.key)].Merge(&o.states[i])
		}
	}
}

// drainSum finishes every group of t in key order: slot order when the
// last part was direct, else the used slots (not the states) sorted by
// key.
func drainSum[R any](t *sumTable, finish func(key uint32, sum float64) R) []R {
	t.order = t.order[:0]
	for s, e := range t.slots {
		if e.buf != 0 {
			t.order = append(t.order, uint32(s))
		}
	}
	if !t.direct {
		slices.SortFunc(t.order, func(a, b uint32) int { return cmp.Compare(t.slots[a].key, t.slots[b].key) })
	}
	run := make([]R, 0, t.n)
	for _, s := range t.order {
		t.flush(int(s))
		run = append(run, finish(t.slots[s].key, t.states[s].Value()))
	}
	return run
}
