package dist

import (
	"bytes"
	"testing"

	"repro/internal/groupby"
	"repro/internal/sqlagg"
)

// Hot-path benchmarks of the shuffle data plane. The reassembly
// "legacy" variant reproduces the pre-optimization code shape
// (map-buffered reassembly with a final concatenation) so the allocs/op
// win of the in-place path is measured, not asserted:
//
//	go test ./internal/dist -bench 'ShuffleEncode|TupleEncode|Reassembly' -benchmem

// benchEncode measures encoding one pre-aggregated table of state
// tuples into a shuffle frame. It must stay allocation-free with frame
// capacity (TestShuffleEncodeZeroAlloc pins the exact count).
func benchEncode(b *testing.B, specs []sqlagg.AggSpec) {
	const groups = 4096
	plan, err := sqlagg.NewTuplePlan(specs)
	if err != nil {
		b.Fatal(err)
	}
	table := groupby.NewTable(plan, groups, 0)
	for k := 0; k < groups; k++ {
		col := []float64{float64(k)*1.5 + 0.25, 0x1p-40 * float64(k+1)}
		table.AddRows([]uint32{uint32(k) * 256, uint32(k) * 256}, [][]float64{col, col})
	}
	want := groups * recordSize(plan)

	frame := make([]byte, 0, want)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = frame[:0]
		var err error
		table.ForEach(func(key uint32, tup *sqlagg.Tuple) {
			if err == nil {
				frame, err = appendTuple(frame, key, plan, tup)
			}
		})
		if err != nil || len(frame) != want {
			b.Fatalf("frame %d bytes, err %v", len(frame), err)
		}
	}
}

// BenchmarkShuffleEncode is the classic single-SUM shuffle encode.
func BenchmarkShuffleEncode(b *testing.B) { benchEncode(b, sumSpecs()) }

// BenchmarkTupleEncode is the multi-aggregate encode over a Q1-shaped
// catalog: two SUMs, an AVG, and the row COUNT over two value columns.
func BenchmarkTupleEncode(b *testing.B) {
	benchEncode(b, []sqlagg.AggSpec{
		{Kind: sqlagg.AggSum, Levels: levels, Col: 0},
		{Kind: sqlagg.AggSum, Levels: levels, Col: 1},
		{Kind: sqlagg.AggAvg, Levels: levels, Col: 0},
		{Kind: sqlagg.AggCount, Levels: levels, Col: 0},
	})
}

// TestRootMergeAllocBound pins the root's gather merge: combining the
// per-owner key-sorted runs into the final result is a k-way merge that
// allocates exactly its output slice and the per-run cursor array —
// never a re-sort of every group (the shape this replaced). A
// regression that reintroduces per-group allocation or a global sort
// trips this count.
func TestRootMergeAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	const runsN, perRun = 4, 1000
	runs := make([][]TupleGroup, runsN)
	for r := range runs {
		for i := 0; i < perRun; i++ {
			key := uint32(i*runsN + r) // disjoint, interleaved key sets
			runs[r] = append(runs[r], TupleGroup{Key: key, Aggs: []float64{float64(key)}})
		}
	}
	var out []TupleGroup
	allocs := testing.AllocsPerRun(20, func() {
		out = mergeSortedRuns(runs)
	})
	if len(out) != runsN*perRun {
		t.Fatalf("merged %d groups, want %d", len(out), runsN*perRun)
	}
	for i := range out {
		if out[i].Key != uint32(i) {
			t.Fatalf("merge order broken at %d: key %d", i, out[i].Key)
		}
	}
	if allocs > 2 {
		t.Fatalf("root merge: %v allocs/op, want <= 2 (output slice + cursors)", allocs)
	}
}

// legacyReassemble is the pre-optimization receive path: buffer chunks
// in a per-stream map, concatenate on completion (two copies and
// per-chunk map churn).
func legacyReassemble(chunks []Frame) []byte {
	buffered := make(map[uint32][]byte) // unsized, as the old partialMsg allocated it
	total := 0
	for _, c := range chunks {
		buffered[c.Chunk] = c.Payload
		total += len(c.Payload)
	}
	payload := make([]byte, 0, total)
	for i := uint32(0); i < uint32(len(chunks)); i++ {
		payload = append(payload, buffered[i]...)
	}
	return payload
}

// BenchmarkReassembly measures rebuilding one logical message from its
// chunk stream: the contiguous-buffer reassembler versus the legacy
// map-and-concat shape, plus the single-frame fast path.
func BenchmarkReassembly(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5A}, 1<<20)
	chunks := SplitFrame(Frame{Kind: KindGroups, From: 1, To: 0, Seq: 0, Payload: payload}, 16<<10)
	single := SplitFrame(Frame{Kind: KindGroups, From: 1, To: 0, Seq: 0, Payload: payload[:1024]}, 0)

	b.Run("multi-64chunk", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			asm := NewReassembler(0)
			var got []byte
			for _, c := range chunks {
				msg, complete, _, err := asm.Accept(c)
				if err != nil {
					b.Fatal(err)
				}
				if complete {
					got = msg.Payload
				}
			}
			if len(got) != len(payload) {
				b.Fatalf("reassembled %d bytes", len(got))
			}
		}
	})
	b.Run("legacy-map-concat", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if got := legacyReassemble(chunks); len(got) != len(payload) {
				b.Fatalf("reassembled %d bytes", len(got))
			}
		}
	})
	b.Run("single-frame", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(single[0].Payload)))
		for i := 0; i < b.N; i++ {
			asm := NewReassembler(0)
			msg, complete, _, err := asm.Accept(single[0])
			if err != nil || !complete || len(msg.Payload) != 1024 {
				b.Fatalf("complete=%v err=%v", complete, err)
			}
		}
	})
}
