package dist

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/groupby"
	"repro/internal/hashagg"
	"repro/internal/partition"
	"repro/internal/rsum"
	"repro/internal/sqlagg"
	"repro/internal/workload"
)

// Tests of the zero-allocation shuffle/gather hot path: in-place state
// encoding, the contiguous-buffer reassembler, and chunked sends.

// TestShuffleEncodeZeroAlloc pins the shuffle's per-key encode loop to
// zero steady-state allocations: with the frame buffer grown once,
// encoding a whole aggregation table of state tuples in place must not
// touch the heap — for the classic single-SUM plan and for a Q1-shaped
// catalog (SUMs, AVG, COUNT, and a MIN for the fixed-size path).
func TestShuffleEncodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	for name, specs := range map[string][]sqlagg.AggSpec{
		"single-sum": sumSpecs(),
		"q1-shaped": {
			{Kind: sqlagg.AggSum, Levels: levels, Col: 0},
			{Kind: sqlagg.AggSum, Levels: levels, Col: 1},
			{Kind: sqlagg.AggAvg, Levels: levels, Col: 0},
			{Kind: sqlagg.AggCount, Levels: levels, Col: 0},
			{Kind: sqlagg.AggMin, Levels: levels, Col: 1},
		},
	} {
		t.Run(name, func(t *testing.T) {
			plan, err := sqlagg.NewTuplePlan(specs)
			if err != nil {
				t.Fatal(err)
			}
			table := groupby.NewTable(plan, 512, 0)
			for k := uint32(0); k < 500; k++ {
				cols := [][]float64{
					{float64(k) * 1.5, -0x1p-30 * float64(k+1)},
					{float64(k)*1.5 - 1, -0x1p-30 * float64(k+1)},
				}
				table.AddRows([]uint32{k * 256, k * 256}, cols)
			}
			frame := make([]byte, 0, table.Len()*recordSize(plan))
			var encErr error
			encode := func() {
				frame = frame[:0]
				table.ForEach(func(key uint32, tup *sqlagg.Tuple) {
					if encErr != nil {
						return
					}
					frame, encErr = appendTuple(frame, key, plan, tup)
				})
			}
			allocs := testing.AllocsPerRun(100, encode)
			if encErr != nil {
				t.Fatal(encErr)
			}
			if len(frame) != table.Len()*recordSize(plan) {
				t.Fatalf("frame is %d bytes, want %d", len(frame), table.Len()*recordSize(plan))
			}
			if allocs != 0 {
				t.Fatalf("shuffle encode loop: %v allocs/op, want 0", allocs)
			}
		})
	}
}

// TestReassemblySteadyStateZeroAlloc pins the reassembler's per-chunk
// cost: once a stream's contiguous buffer and arrival bitmap exist,
// accepting further chunks allocates nothing — and chunks of an
// already-completed stream are swallowed allocation-free (the
// chunk-flood path).
func TestReassemblySteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	const chunkSize = 64
	payload := bytes.Repeat([]byte{0xAB}, 400*chunkSize-10)
	chunks := SplitFrame(Frame{Kind: KindGroups, From: 1, To: 0, Seq: 5, Payload: payload}, chunkSize)
	if len(chunks) != 400 {
		t.Fatalf("%d chunks, want 400", len(chunks))
	}
	asm := NewReassembler(0, chunkSize)
	if _, _, _, err := asm.Accept(chunks[0]); err != nil {
		t.Fatal(err)
	}
	i := 1
	allocs := testing.AllocsPerRun(300, func() {
		if _, complete, fresh, err := asm.Accept(chunks[i]); err != nil || complete || !fresh {
			t.Fatalf("chunk %d: complete=%v fresh=%v err=%v", i, complete, fresh, err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("mid-stream chunk placement: %v allocs/op, want 0", allocs)
	}

	var final Frame
	completions := 0
	for ; i < len(chunks); i++ {
		msg, complete, _, err := asm.Accept(chunks[i])
		if err != nil {
			t.Fatal(err)
		}
		if complete {
			completions++
			final = msg
		}
	}
	if completions != 1 || !bytes.Equal(final.Payload, payload) {
		t.Fatalf("completions=%d, payload %d bytes, want %d", completions, len(final.Payload), len(payload))
	}

	allocs = testing.AllocsPerRun(100, func() {
		if _, complete, fresh, err := asm.Accept(chunks[3]); err != nil || complete || fresh {
			t.Fatalf("completed-stream chunk not swallowed: complete=%v fresh=%v err=%v", complete, fresh, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("completed-stream swallow: %v allocs/op, want 0", allocs)
	}
}

// mkChunk is chunk `chunk` of a `chunks`-chunk KindGroups stream seq
// from node 1, with a size-byte payload.
func mkChunk(seq, chunk, chunks uint32, size int) Frame {
	return Frame{Kind: KindGroups, From: 1, To: 0, Seq: seq,
		Chunk: chunk, Chunks: chunks, Payload: bytes.Repeat([]byte{byte(chunk + 1)}, size)}
}

// TestReassemblerRejectsInconsistentChunkSizes: SplitFrame guarantees
// every non-final chunk is the run's stride and the final chunk is no
// larger; the reassembler enforces that shape at the trust boundary and
// keeps the stream recoverable after rejecting a malformed chunk.
func TestReassemblerRejectsInconsistentChunkSizes(t *testing.T) {
	mk := mkChunk
	asm := NewReassembler(0, 10)

	// Non-final chunk off the stride.
	if _, _, _, err := asm.Accept(mk(0, 0, 3, 10)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := asm.Accept(mk(0, 1, 3, 9)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("mismatched non-final chunk: %v, want ErrBadFrame", err)
	}
	// The stream is still completable with well-shaped chunks.
	if _, complete, _, err := asm.Accept(mk(0, 1, 3, 10)); err != nil || complete {
		t.Fatalf("recovery chunk: complete=%v err=%v", complete, err)
	}
	msg, complete, _, err := asm.Accept(mk(0, 2, 3, 4))
	if err != nil || !complete || len(msg.Payload) != 24 {
		t.Fatalf("completion after recovery: complete=%v len=%d err=%v", complete, len(msg.Payload), err)
	}

	// Final chunk larger than the stride.
	if _, _, _, err := asm.Accept(mk(1, 0, 3, 10)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := asm.Accept(mk(1, 2, 3, 11)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized final chunk: %v, want ErrBadFrame", err)
	}

	// Oversized first-arriving final chunk rejected.
	if _, _, _, err := asm.Accept(mk(2, 2, 3, 12)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized first-arriving final chunk: %v, want ErrBadFrame", err)
	}

	// A stream whose declared buffer could never fit the budget is
	// rejected on its first chunk, before any allocation.
	small := NewReassembler(100, 10)
	if _, _, _, err := small.Accept(mk(3, 0, 1000, 10)); !errors.Is(err, ErrChunkBudget) {
		t.Fatalf("declared-impossible stream: %v, want ErrChunkBudget", err)
	}
}

// TestReassemblerBudgetChargesAllocatedBuffers: the budget must bound
// allocated reassembly memory, not just arrived bytes — a peer opening
// many barely-started streams, each declaring a large chunk count,
// must trip the budget once the allocated buffers reach it, even
// though almost no payload has arrived.
func TestReassemblerBudgetChargesAllocatedBuffers(t *testing.T) {
	// Each stream's first chunk allocates a 100-chunk × 10-byte = 1000-
	// byte buffer while delivering only 10 bytes. Budget 2500: two
	// streams fit (2000 charged), the third must be rejected.
	asm := NewReassembler(2500, 10)
	for seq := uint32(0); seq < 2; seq++ {
		f := Frame{Kind: KindGroups, From: 1, To: 0, Seq: seq, Chunk: 0, Chunks: 100,
			Payload: bytes.Repeat([]byte{1}, 10)}
		if _, _, _, err := asm.Accept(f); err != nil {
			t.Fatalf("stream %d: %v", seq, err)
		}
	}
	f := Frame{Kind: KindGroups, From: 1, To: 0, Seq: 2, Chunk: 0, Chunks: 100,
		Payload: bytes.Repeat([]byte{1}, 10)}
	if _, _, _, err := asm.Accept(f); !errors.Is(err, ErrChunkBudget) {
		t.Fatalf("third 1000-byte buffer on a 2500 budget: %v, want ErrChunkBudget", err)
	}
}

// TestReassemblerMissingBeforeStride: when only the final chunk of a
// stream has arrived, before any chunk at the stride, Missing must
// report every other index so the straggler path re-requests exactly
// those.
func TestReassemblerMissingBeforeStride(t *testing.T) {
	asm := NewReassembler(0, 4)
	final := Frame{Kind: KindGroups, From: 2, To: 0, Seq: 0, Chunk: 4, Chunks: 5, Payload: []byte{1, 2, 3}}
	if _, complete, fresh, err := asm.Accept(final); err != nil || complete || !fresh {
		t.Fatalf("lone final: complete=%v fresh=%v err=%v", complete, fresh, err)
	}
	got := asm.Missing(2, 0)
	want := []uint32{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("missing = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("missing = %v, want %v", got, want)
		}
	}
	// Duplicate of the final chunk is absorbed silently.
	if _, complete, fresh, err := asm.Accept(final); err != nil || complete || fresh {
		t.Fatalf("duplicate final: complete=%v fresh=%v err=%v", complete, fresh, err)
	}
}

// TestReassemblerEnforcesRunStride: the stride is the run's, not the
// first arrival's. A first-arriving non-final chunk off it and a
// first-arriving final chunk over it are both rejected before anything
// is buffered or charged, and the stream then completes at the stride.
func TestReassemblerEnforcesRunStride(t *testing.T) {
	asm := NewReassembler(30, 10) // room for exactly one 3-chunk stream
	for _, f := range []Frame{mkChunk(0, 1, 3, 9), mkChunk(0, 0, 3, 11), mkChunk(0, 2, 3, 11)} {
		if _, _, fresh, err := asm.Accept(f); !errors.Is(err, ErrBadFrame) || fresh {
			t.Fatalf("first-arriving %d-byte chunk %d at stride 10: fresh=%v err=%v, want ErrBadFrame",
				len(f.Payload), f.Chunk, fresh, err)
		}
		if idx := asm.Missing(1, 0); idx != nil {
			t.Fatalf("rejected chunk %d left a partial: missing %v", f.Chunk, idx)
		}
	}
	var msg Frame
	for i, size := range []int{10, 10, 4} {
		var err error
		if msg, _, _, err = asm.Accept(mkChunk(0, uint32(i), 3, size)); err != nil {
			t.Fatalf("chunk %d at the stride: %v", i, err)
		}
	}
	if len(msg.Payload) != 24 {
		t.Fatalf("completed payload is %d bytes, want 24", len(msg.Payload))
	}
}

// TestCombineShardMatchesLegacyEncoding: the in-place AppendBinary
// shuffle encoder must produce, per destination, exactly the ⟨key,
// state⟩ pairs a fresh-table-per-partition MarshalBinary reference
// produces, with byte-identical per-key state encodings (pair order within a frame is
// a slot-order detail; owners merge per key, so order is immaterial).
func TestCombineShardMatchesLegacyEncoding(t *testing.T) {
	const rows = 3000
	const nodes = 4
	keys := workload.Keys(5, rows, 700)
	vals := workload.Values64(6, rows, workload.MixedMag)

	plan, err := sqlagg.NewTuplePlan(sumSpecs())
	if err != nil {
		t.Fatal(err)
	}
	frames, err := combineShard(keys, [][]float64{vals}, plan, nodes, 2, new(NodeMemory))
	if err != nil {
		t.Fatal(err)
	}

	// Legacy path: fresh table per partition, MarshalBinary per key.
	out := partition.Do(keys, vals, 0, shuffleFanout, 2)
	legacy := make([]map[uint32][]byte, nodes)
	for d := range legacy {
		legacy[d] = make(map[uint32][]byte)
	}
	for p := 0; p < out.NumPartitions(); p++ {
		pk, pv := out.Partition(p)
		if len(pk) == 0 {
			continue
		}
		table := hashagg.New(len(pk)/8+8, hashagg.Identity, func() rsum.State64 { return rsum.NewState64(levels) })
		for i, k := range pk {
			table.Upsert(k).Add(pv[i])
		}
		d := p % nodes
		table.ForEach(func(key uint32, st *rsum.State64) {
			enc, err := st.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			legacy[d][key] = enc
		})
	}

	for d := 0; d < nodes; d++ {
		got := make(map[uint32][]byte)
		if err := walkFrame(frames[d], func(key uint32, enc []byte) error {
			got[key] = append([]byte(nil), enc...)
			return nil
		}); err != nil {
			t.Fatalf("destination %d: %v", d, err)
		}
		if len(got) != len(legacy[d]) {
			t.Fatalf("destination %d: %d keys, legacy has %d", d, len(got), len(legacy[d]))
		}
		for key, enc := range legacy[d] {
			if !bytes.Equal(got[key], enc) {
				t.Fatalf("destination %d key %d: encoding differs from legacy", d, key)
			}
		}
	}
}

// TestEndToEndTCPChunked runs the full GROUP BY over a raw
// (undecorated) TCP transport with a chunk payload that forces
// multi-chunk streams, each chunk written by its own Endpoint.Send;
// bits must match the sequential reference.
func TestEndToEndTCPChunked(t *testing.T) {
	const rows = 4000
	keys := workload.Keys(81, rows, 900)
	vals := workload.Values64(82, rows, workload.MixedMag)
	want := refGroups(keys, vals)

	cfg := Config{NewTransport: TCPTransportFactory, MaxChunkPayload: 2048}
	for _, nodes := range []int{2, 3} {
		lk, lv := dealRows(keys, vals, nodes)
		out, err := AggregateByKeyConfig(lk, lv, 2, cfg)
		if err != nil {
			t.Fatalf("n=%d: %v", nodes, err)
		}
		checkGroups(t, out, want, nodes, 2)
	}
}

// TestCombineLoopZeroAlloc pins the pipeline's row loop: once a table
// has seen a partition's keys, clearing it and folding another
// partition's rows in allocates nothing — tuples, their component
// states and their summation buffers are recycled in place — with
// buffers and without.
func TestCombineLoopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	plan, err := sqlagg.NewTuplePlan(tupleSpecs())
	if err != nil {
		t.Fatal(err)
	}
	const rows, groups = 4096, 16
	keys := make([]uint32, rows)
	for i := range keys {
		keys[i] = 7<<8 | uint32(i%groups) // one key-range partition's keys
	}
	cols := [][]float64{
		workload.Values64(41, rows, workload.MixedMag),
		workload.Values64(42, rows, workload.MixedMag),
	}
	_, planned := groupby.Layout(plan, groups, rows/groups)
	if planned == 0 {
		t.Fatalf("no buffers planned for %d groups of %d rows", groups, rows/groups)
	}
	for _, bsz := range []int{planned, 0} {
		table := groupby.NewTable(plan, groups, bsz)
		table.AddRows(keys, cols)
		allocs := testing.AllocsPerRun(20, func() {
			table.Clear()
			table.AddRows(keys, cols)
		})
		if allocs != 0 {
			t.Errorf("bsz %d: %v allocs per %d-row partition, want 0", bsz, allocs, rows)
		}
	}
}

// TestOwnerMergeAllocs pins the owner role's table (ROADMAP 3a):
// building and filling it from a 2^15-group shuffle frame is a constant
// handful of allocations — the slots and the component columns, not
// one or more per group — and merging a second sender's frame into the
// warm table allocates nothing.
func TestOwnerMergeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	plan, err := sqlagg.NewTuplePlan(tupleSpecs())
	if err != nil {
		t.Fatal(err)
	}
	const groups = 1 << 15
	src := groupby.NewTable(plan, groups, 0)
	cols := [][]float64{
		workload.Values64(43, groups, workload.MixedMag),
		workload.Values64(44, groups, workload.MixedMag),
	}
	keys := make([]uint32, groups)
	for i := range keys {
		keys[i] = uint32(i) << 1
	}
	src.AddRows(keys, cols)
	var frame []byte
	src.ForEach(func(key uint32, tup *sqlagg.Tuple) {
		if frame, err = appendTuple(frame, key, plan, tup); err != nil {
			t.Fatal(err)
		}
	})

	var owner *ownerMerge
	build := testing.AllocsPerRun(3, func() {
		owner = &ownerMerge{plan: plan, senders: 2, mem: new(NodeMemory)}
		if err := owner.merge(frame); err != nil {
			t.Fatal(err)
		}
	})
	if build > 64 {
		t.Errorf("building a %d-group owner table: %v allocations, want a small constant", groups, build)
	}
	if owner.table.Len() != groups {
		t.Fatalf("owner table holds %d groups, want %d", owner.table.Len(), groups)
	}
	warm := testing.AllocsPerRun(3, func() {
		if err := owner.merge(frame); err != nil {
			t.Fatal(err)
		}
	})
	if warm != 0 {
		t.Errorf("merging a frame into the warm owner table: %v allocations, want 0", warm)
	}
}
