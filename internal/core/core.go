// Package core packages the paper's primary contribution as data types
// that drop into existing aggregation operators:
//
//   - Sum64 / Sum32 are the repro<double,L> / repro<float,L> types of
//     Section IV: associative, bit-reproducible accumulators whose only
//     arithmetic operation is addition (with scalars and with each
//     other). Using them in place of a float running sum makes any
//     GROUPBY operator bit-reproducible with no structural change. The
//     paper measures 4×–12× for them in Figure 4, with carries propagated
//     after every value; these propagate once per NB values, which keeps
//     the bits and drops the division and floor from the per-value path.
//
//   - Buffered64 / Buffered32 add the summation buffer of Section V-A
//     (Figure 5): input values are buffered per group and aggregated in
//     batches with the vectorized summation kernel, which reduces the
//     overhead of reproducibility to roughly 2× (Figure 10, Table III).
//
// All types are plain values (no internal pointers except the buffer
// slice), so they can be stored directly in hash-table payload arrays.
// The buffered types do not reproduce Figure 5's inline
// ⟨state | next | a_0 … a_bsz⟩ payload: the state and the fill index sit
// in the slot, the buffer is a separate allocation behind a slice header,
// which agg.Aggregate's tables recycle across partitions through Reset;
// repro.GroupBySum's table (agg.GroupBySum's) stores neither type.
package core

import "repro/internal/rsum"

// DefaultLevels is the default number of summation levels. L = 2
// matches the accuracy of conventional IEEE summation (Section VI-B);
// higher L buys more accuracy at higher cost.
const DefaultLevels = 2

// MaxLevels re-exports the maximum supported level count.
const MaxLevels = rsum.MaxLevels

// Sum64 is a reproducible, associative accumulator for float64 values —
// the repro<double,L> data type. The zero value is unusable; create
// with NewSum64.
type Sum64 struct {
	st rsum.State64
}

// NewSum64 returns an empty accumulator with the given number of levels.
func NewSum64(levels int) Sum64 {
	return Sum64{st: rsum.NewState64(levels)}
}

// Add folds one value into the accumulator (operator+=(double)): the
// value is extracted now (Algorithm 2) and carries propagate once per
// NB = 2^11 values, so between propagations the state is un-normalized
// like a buffered one between flushes; every operation reads it
// correctly. The paper's per-value propagation (its Figures 4 and 7) is
// rsum.State64.AddEager. Batch paths (AddSlice, the buffered type) also
// drop the per-value level check.
func (s *Sum64) Add(v float64) { s.st.Add(v) }

// AddSlice folds a batch of values using the tiled scalar kernel.
func (s *Sum64) AddSlice(vs []float64) { s.st.AddSlice(vs) }

// MergeFrom folds another accumulator into this one
// (operator+=(repro<double,L>)). Merging is associative and
// order-independent at the bit level.
func (s *Sum64) MergeFrom(o *Sum64) { s.st.Merge(&o.st) }

// Value finalizes and returns the reproducible sum.
func (s *Sum64) Value() float64 { return s.st.Value() }

// Levels returns the configured number of levels.
func (s *Sum64) Levels() int { return s.st.Levels() }

// State exposes the underlying summation state (for serialization).
func (s *Sum64) State() *rsum.State64 { return &s.st }

// Reset empties the accumulator, keeping its level configuration.
func (s *Sum64) Reset() { s.st.Reset(s.st.Levels()) }

// Sum32 is the repro<float,L> accumulator.
type Sum32 struct {
	st rsum.State32
}

// NewSum32 returns an empty accumulator with the given number of levels.
func NewSum32(levels int) Sum32 {
	return Sum32{st: rsum.NewState32(levels)}
}

// Add folds one value into the accumulator, propagating carries once
// per NB32 = 16 values; see Sum64.Add.
func (s *Sum32) Add(v float32) { s.st.Add(v) }

// AddSlice folds a batch of values.
func (s *Sum32) AddSlice(vs []float32) { s.st.AddSlice(vs) }

// MergeFrom folds another accumulator into this one.
func (s *Sum32) MergeFrom(o *Sum32) { s.st.Merge(&o.st) }

// Value finalizes and returns the reproducible sum.
func (s *Sum32) Value() float32 { return s.st.Value() }

// Levels returns the configured number of levels.
func (s *Sum32) Levels() int { return s.st.Levels() }

// State exposes the underlying summation state (for serialization).
func (s *Sum32) State() *rsum.State32 { return &s.st }

// Reset empties the accumulator, keeping its level configuration.
func (s *Sum32) Reset() { s.st.Reset(s.st.Levels()) }

// Buffered64 is a reproducible float64 accumulator with a summation
// buffer (Section V-A): values are appended to a per-group buffer and
// aggregated with the vectorized kernel only when the buffer fills.
// The repro state and the fill index next are inline; the buffer
// a_0 … a_bsz is a separate allocation behind a slice header (not
// Figure 5's one inline payload), which Reset keeps so that a table can
// recycle it for the next partition.
type Buffered64 struct {
	st   rsum.State64
	next int32
	buf  []float64
}

// NewBuffered64 returns an empty buffered accumulator with the given
// level count and buffer size (bsz). Buffer sizes < 1 panic.
func NewBuffered64(levels, bsz int) Buffered64 {
	if bsz < 1 {
		panic("core: buffer size must be ≥ 1")
	}
	return Buffered64{st: rsum.NewState64(levels), buf: make([]float64, bsz)}
}

// Add appends a value to the buffer, flushing it through the vectorized
// summation kernel when full.
func (b *Buffered64) Add(v float64) {
	b.buf[b.next] = v
	b.next++
	if int(b.next) == len(b.buf) {
		b.st.AddSliceVec(b.buf)
		b.next = 0
	}
}

// Flush aggregates any buffered values into the summation state.
func (b *Buffered64) Flush() {
	if b.next > 0 {
		b.st.AddSliceVec(b.buf[:b.next])
		b.next = 0
	}
}

// MergeFrom flushes both accumulators and merges the other's state into
// this one.
func (b *Buffered64) MergeFrom(o *Buffered64) {
	b.Flush()
	o.Flush()
	b.st.Merge(&o.st)
}

// MergeIntoSum flushes and merges this accumulator into an unbuffered
// Sum64 — the shared-table transfer of Algorithm 4 (lines 4–6), which
// stores plain repro values because "the result would consist of
// summation buffers, which take up more space than needed".
func (b *Buffered64) MergeIntoSum(dst *Sum64) {
	b.Flush()
	dst.st.Merge(&b.st)
}

// Value flushes and returns the reproducible sum.
func (b *Buffered64) Value() float64 {
	b.Flush()
	return b.st.Value()
}

// BufferSize returns the configured bsz.
func (b *Buffered64) BufferSize() int { return len(b.buf) }

// Reset empties the accumulator but keeps the buffer allocation — the
// hook that lets aggregation tables recycle payloads across partitions
// instead of reallocating bsz-sized buffers for every partition.
func (b *Buffered64) Reset() {
	b.st.Reset(b.st.Levels())
	b.next = 0
}

// Buffered32 is the float32 buffered accumulator, laid out as Buffered64:
// the state and the fill index inline, the buffer a separate allocation
// that Reset keeps.
type Buffered32 struct {
	st   rsum.State32
	next int32
	buf  []float32
}

// NewBuffered32 returns an empty buffered float32 accumulator.
func NewBuffered32(levels, bsz int) Buffered32 {
	if bsz < 1 {
		panic("core: buffer size must be ≥ 1")
	}
	return Buffered32{st: rsum.NewState32(levels), buf: make([]float32, bsz)}
}

// Add appends a value, flushing the buffer when full.
func (b *Buffered32) Add(v float32) {
	b.buf[b.next] = v
	b.next++
	if int(b.next) == len(b.buf) {
		b.st.AddSliceVec(b.buf)
		b.next = 0
	}
}

// Flush aggregates buffered values into the state.
func (b *Buffered32) Flush() {
	if b.next > 0 {
		b.st.AddSliceVec(b.buf[:b.next])
		b.next = 0
	}
}

// MergeFrom flushes both accumulators and merges.
func (b *Buffered32) MergeFrom(o *Buffered32) {
	b.Flush()
	o.Flush()
	b.st.Merge(&o.st)
}

// MergeIntoSum flushes and merges into an unbuffered Sum32.
func (b *Buffered32) MergeIntoSum(dst *Sum32) {
	b.Flush()
	dst.st.Merge(&b.st)
}

// Value flushes and returns the reproducible sum.
func (b *Buffered32) Value() float32 {
	b.Flush()
	return b.st.Value()
}

// BufferSize returns the configured bsz.
func (b *Buffered32) BufferSize() int { return len(b.buf) }

// Reset empties the accumulator but keeps the buffer allocation.
func (b *Buffered32) Reset() {
	b.st.Reset(b.st.Levels())
	b.next = 0
}
