package dist

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/rsum"
	"repro/internal/workload"
)

// seedSweep widens the chunked equivalence matrix to this many workload
// seeds. CI runs the default single seed; the nightly workflow passes
// -dist.seedsweep to sweep a larger family of inputs through the same
// cells, and any value above 1 adds the 10^6-row GROUP BY cell per seed
// (chunkedGroupByAtScale).
var seedSweep = flag.Int("dist.seedsweep", 1, "workload seeds for the chunked transport matrix")

// --- SplitFrame / reassembler units ---

func TestSplitFrame(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 10)
	base := Frame{Kind: KindGroups, From: 1, To: 2, Seq: seqShuffle, Payload: payload}

	cases := []struct {
		maxChunk int
		want     int
	}{
		{3, 4},  // 3+3+3+1
		{5, 2},  // exact multiple
		{10, 1}, // exact fit
		{64, 1}, // larger than the payload
		{0, 1},  // 0 means the 16 MiB default
	}
	for _, c := range cases {
		chunks := SplitFrame(base, c.maxChunk)
		if len(chunks) != c.want {
			t.Fatalf("maxChunk %d: %d chunks, want %d", c.maxChunk, len(chunks), c.want)
		}
		var cat []byte
		for i, ch := range chunks {
			if ch.Kind != base.Kind || ch.From != base.From || ch.To != base.To || ch.Seq != base.Seq {
				t.Fatalf("maxChunk %d: chunk %d lost its routing header", c.maxChunk, i)
			}
			if ch.Chunk != uint32(i) || ch.Chunks != uint32(len(chunks)) {
				t.Fatalf("maxChunk %d: chunk %d numbered %d/%d", c.maxChunk, i, ch.Chunk, ch.Chunks)
			}
			cat = append(cat, ch.Payload...)
		}
		if !bytes.Equal(cat, payload) {
			t.Fatalf("maxChunk %d: chunks do not concatenate to the payload", c.maxChunk)
		}
	}

	// An empty payload still yields exactly one (empty) chunk, so
	// receivers can count senders.
	empty := SplitFrame(Frame{Kind: KindGroups, From: 0, To: 0, Seq: seqShuffle}, 4)
	if len(empty) != 1 || empty[0].Chunks != 1 || len(empty[0].Payload) != 0 {
		t.Fatalf("empty payload split to %+v", empty)
	}

	// Chunk payloads alias the logical payload: no copying on the
	// in-process path.
	chunks := SplitFrame(base, 4)
	if &chunks[0].Payload[0] != &payload[0] {
		t.Fatal("chunk payload does not alias the logical payload")
	}
}

func TestReassemblerMissing(t *testing.T) {
	asm := NewReassembler(1<<20, 10)
	chunks := SplitFrame(Frame{Kind: KindGroups, From: 3, To: 0, Seq: 0, Payload: bytes.Repeat([]byte{1}, 100)}, 10)
	if len(chunks) != 10 {
		t.Fatalf("%d chunks, want 10", len(chunks))
	}

	// Nothing heard yet: missing() reports nil, meaning "ask for the
	// whole stream".
	if idx := asm.Missing(3, 0); idx != nil {
		t.Fatalf("missing before any chunk = %v, want nil", idx)
	}
	for _, i := range []int{1, 4, 7} {
		if _, complete, fresh, err := asm.Accept(chunks[i]); err != nil || complete || !fresh {
			t.Fatalf("chunk %d: complete=%v fresh=%v err=%v", i, complete, fresh, err)
		}
	}
	want := []uint32{0, 2, 3, 5, 6, 8, 9}
	got := asm.Missing(3, 0)
	if len(got) != len(want) {
		t.Fatalf("missing = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("missing = %v, want %v", got, want)
		}
	}

	// Duplicates are absorbed without completing or counting as fresh.
	if _, complete, fresh, err := asm.Accept(chunks[4]); err != nil || complete || fresh {
		t.Fatalf("duplicate chunk: complete=%v fresh=%v err=%v", complete, fresh, err)
	}

	// Feed the rest; the last one completes with the exact payload.
	var final Frame
	completions := 0
	for _, i := range []int{0, 2, 3, 5, 6, 8, 9} {
		msg, complete, _, err := asm.Accept(chunks[i])
		if err != nil {
			t.Fatal(err)
		}
		if complete {
			completions++
			final = msg
		}
	}
	if completions != 1 || !bytes.Equal(final.Payload, bytes.Repeat([]byte{1}, 100)) {
		t.Fatalf("completions=%d payload=%d bytes", completions, len(final.Payload))
	}

	// Completed: further chunks of the stream are swallowed, and
	// missing() no longer reports a partial.
	if _, complete, fresh, err := asm.Accept(chunks[0]); err != nil || complete || fresh {
		t.Fatalf("post-completion chunk: complete=%v fresh=%v err=%v", complete, fresh, err)
	}
	if idx := asm.Missing(3, 0); idx != nil {
		t.Fatalf("missing after completion = %v, want nil", idx)
	}
}

func TestReassemblerBudgetReleasedOnCompletion(t *testing.T) {
	// Budget fits one message at a time but not two partials: if
	// completion did not release the buffered bytes, the second message
	// would trip the budget.
	asm := NewReassembler(120, 30)
	for seq := uint32(0); seq < 5; seq++ {
		chunks := SplitFrame(Frame{Kind: KindGather, From: 1, To: 0, Seq: seq, Payload: bytes.Repeat([]byte{byte(seq)}, 100)}, 30)
		for i := len(chunks) - 1; i >= 0; i-- { // out of order, to force buffering
			if _, _, _, err := asm.Accept(chunks[i]); err != nil {
				t.Fatalf("seq %d chunk %d: %v", seq, i, err)
			}
		}
	}

	// A partial stream that would exceed the budget errors instead.
	big := SplitFrame(Frame{Kind: KindGather, From: 2, To: 0, Seq: 9, Payload: bytes.Repeat([]byte{9}, 300)}, 30)
	var err error
	for i := len(big) - 1; i >= 0 && err == nil; i-- {
		_, _, _, err = asm.Accept(big[i])
	}
	if !errors.Is(err, ErrChunkBudget) {
		t.Fatalf("got %v, want ErrChunkBudget", err)
	}
}

// --- chunk-counting decorator: proves scenarios genuinely go multi-chunk ---

// chunkCounter records, per frame kind, the largest declared chunk
// count and the per-chunk transmission tally, so tests can assert both
// "this really was a ≥3-chunk stream" and "only the lost chunk was
// retransmitted".
type chunkCounter struct {
	Transport
	mu        sync.Mutex
	maxChunks map[byte]uint32
	sends     map[chunkID]int
}

func newChunkCounter(inner Transport) *chunkCounter {
	return &chunkCounter{
		Transport: inner,
		maxChunks: make(map[byte]uint32),
		sends:     make(map[chunkID]int),
	}
}

func (c *chunkCounter) Send(f Frame) error {
	c.mu.Lock()
	if f.Chunks > c.maxChunks[f.Kind] {
		c.maxChunks[f.Kind] = f.Chunks
	}
	if f.Kind != KindResend {
		c.sends[chunkID{f.From, f.To, f.Seq, f.Chunk}]++
	}
	c.mu.Unlock()
	return c.Transport.Send(f)
}

func (c *chunkCounter) max(kind byte) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxChunks[kind]
}

// countingFactory wraps a factory so each built transport is observed
// by a fresh counter, handed to the caller through out.
func countingFactory(inner TransportFactory, out *[]*chunkCounter, mu *sync.Mutex) TransportFactory {
	return func(n int) (Transport, error) {
		tr, err := inner(n)
		if err != nil {
			return nil, err
		}
		c := newChunkCounter(tr)
		mu.Lock()
		*out = append(*out, c)
		mu.Unlock()
		return c, nil
	}
}

// --- the chunked equivalence matrix (the PR's acceptance bar) ---

// TestChunkedReduceTransportMatrix: with a chunk payload small enough
// that every partial state's shuffle record travels as ≥3 chunks, every (cluster size ×
// transport × fault plan) cell must still produce bits
// identical to the single-threaded sequential sum.
func TestChunkedReduceTransportMatrix(t *testing.T) {
	for s := 0; s < *seedSweep; s++ {
		seed := uint64(17 + 1000*s)
		vals := workload.Values64(seed, 4000, workload.MixedMag)
		ref := rsum.NewState64(levels)
		ref.AddSliceVec(vals)
		want := math.Float64bits(ref.Value())

		for tname, factory := range transportFactories() {
			for pname, plan := range faultPlans() {
				plan := plan
				factory := factory
				t.Run(fmt.Sprintf("seed%d/%s/%s", seed, tname, pname), func(t *testing.T) {
					t.Parallel()
					for _, nodes := range []int{2, 5} {
						shards := shard(vals, nodes)
						var counters []*chunkCounter
						var mu sync.Mutex
						cfg := matrixConfig(countingFactory(factory, &counters, &mu), plan)
						// A partial's shuffle record is ~60 bytes at
						// L=2 (key, length, ~52-byte State64): a
						// 16-byte chunk payload forces ≥4 chunks.
						cfg.MaxChunkPayload = 16
						got, err := ReduceConfig(shards, 2, cfg)
						if err != nil {
							t.Fatalf("n=%d: %v", nodes, err)
						}
						if bits := math.Float64bits(got); bits != want {
							t.Fatalf("n=%d: %016x, want %016x", nodes, bits, want)
						}
						if mc := counters[0].max(KindGroups); mc < 3 {
							t.Fatalf("n=%d: partials peaked at %d chunks, want ≥3", nodes, mc)
						}
					}
				})
			}
		}
	}
}

// TestChunkedAggregateByKeyTransportMatrix: a cardinality at which
// every (sender, owner) shuffle payload needs ≥3 chunks — and the
// gather payloads too — must match the sequential per-key reference
// bit for bit under every transport × fault plan.
func TestChunkedAggregateByKeyTransportMatrix(t *testing.T) {
	for s := 0; s < *seedSweep; s++ {
		seed := uint64(37 + 1000*s)
		const rows = 6000
		const distinct = 1200
		keys := workload.Keys(seed, rows, distinct)
		vals := workload.Values64(seed+1, rows, workload.MixedMag)
		want := refGroups(keys, vals)

		for tname, factory := range transportFactories() {
			for pname, plan := range faultPlans() {
				plan := plan
				factory := factory
				t.Run(fmt.Sprintf("seed%d/%s/%s", seed, tname, pname), func(t *testing.T) {
					t.Parallel()
					for _, nodes := range []int{2, 3} {
						lk, lv := dealRows(keys, vals, nodes)
						var counters []*chunkCounter
						var mu sync.Mutex
						cfg := matrixConfig(countingFactory(factory, &counters, &mu), plan)
						// ~60 B per ⟨key, state⟩ pair and ≥distinct/n
						// keys per (sender, owner) payload: 2 KiB chunks
						// force well over 3 chunks per pair; the 12 B/key
						// gather payloads go multi-chunk too.
						cfg.MaxChunkPayload = 2048
						out, err := AggregateByKeyConfig(lk, lv, 2, cfg)
						if err != nil {
							t.Fatalf("n=%d: %v", nodes, err)
						}
						checkGroups(t, out, want, nodes, 2)
						if mc := counters[0].max(KindGroups); mc < 3 {
							t.Fatalf("n=%d: shuffle peaked at %d chunks, want ≥3", nodes, mc)
						}
						if nodes > 1 {
							if mc := counters[0].max(KindGather); mc < 3 {
								t.Fatalf("n=%d: gather peaked at %d chunks, want ≥3", nodes, mc)
							}
						}
					}
				})
			}
		}
		if *seedSweep > 1 {
			t.Run(fmt.Sprintf("seed%d/atscale", seed), func(t *testing.T) {
				chunkedGroupByAtScale(t, seed)
			})
		}
	}
}

// chunkedGroupByAtScale is the cardinality the per-PR matrix cannot
// afford: 10^6 rows into 2048 keys with a 4 KiB chunk payload (~60 B
// per ⟨key, state⟩ pair, so ≥ 7 chunks per (sender, owner) stream at 4
// nodes), on a quiet and on a hostile link over both transports,
// against the sequential per-key reference. A cell whose shuffle stayed
// under 3 chunks fails: it would prove nothing about reassembly. Cells
// run one at a time — each holds the dealt copy of the million rows.
func chunkedGroupByAtScale(t *testing.T, seed uint64) {
	const rows = 1_000_000
	const distinct = 2048
	keys := workload.Keys(seed, rows, distinct)
	vals := workload.Values64(seed+1, rows, workload.MixedMag)
	want := refGroups(keys, vals)
	plans := faultPlans()
	for _, nodes := range []int{2, 4} {
		lk, lv := dealRows(keys, vals, nodes)
		for tname, factory := range transportFactories() {
			for _, pname := range []string{"none", "chaos"} {
				var counters []*chunkCounter
				var mu sync.Mutex
				cfg := matrixConfig(countingFactory(factory, &counters, &mu), plans[pname])
				cfg.MaxChunkPayload = 4096
				out, err := AggregateByKeyConfig(lk, lv, 2, cfg)
				if err != nil {
					t.Fatalf("%s/%s n=%d: %v", tname, pname, nodes, err)
				}
				checkGroups(t, out, want, nodes, 2)
				if mc := counters[0].max(KindGroups); mc < 3 {
					t.Fatalf("%s/%s n=%d: shuffle peaked at %d chunks, want ≥3", tname, pname, nodes, mc)
				}
			}
		}
	}
}

// TestChunkedStragglerRerequest forces the chunk-level re-request path
// on every single chunk: the first transmission of every distinct data
// chunk is swallowed, so receivers only make progress through deadline
// → per-chunk re-request → retransmit-from-cache.
func TestChunkedStragglerRerequest(t *testing.T) {
	const rows = 3000
	keys := workload.Keys(53, rows, 600)
	vals := workload.Values64(54, rows, workload.MixedMag)
	want := refGroups(keys, vals)

	factory := func(n int) (Transport, error) {
		return &firstSendBlackhole{
			Transport: NewChanTransport(n),
			kinds:     map[byte]bool{KindGroups: true, KindGather: true},
			dropped:   make(map[chunkID]bool),
		}, nil
	}
	cfg := Config{NewTransport: factory, ChildDeadline: 2 * time.Millisecond, MaxResend: -1, MaxChunkPayload: 2048}
	for _, nodes := range []int{2, 4} {
		lk, lv := dealRows(keys, vals, nodes)
		out, err := AggregateByKeyConfig(lk, lv, 2, cfg)
		if err != nil {
			t.Fatalf("n=%d: %v", nodes, err)
		}
		checkGroups(t, out, want, nodes, 2)
	}
}

// oneChunkBlackhole swallows the first transmission of exactly one
// chunk (matched by kind, from, to, seq, chunk index).
type oneChunkBlackhole struct {
	Transport
	victim  chunkID
	kind    byte
	mu      sync.Mutex
	dropped bool
}

func (b *oneChunkBlackhole) Send(f Frame) error {
	if f.Kind == b.kind {
		id := chunkID{f.From, f.To, f.Seq, f.Chunk}
		b.mu.Lock()
		first := !b.dropped && id == b.victim
		if first {
			b.dropped = true
		}
		b.mu.Unlock()
		if first {
			return nil
		}
	}
	return b.Transport.Send(f)
}

// TestSingleLostChunkResendsOnlyThatChunk is the point of the
// chunk-aware resend cache: when one chunk of a large shuffle message
// is lost, the receiver re-requests and the sender retransmits exactly
// that chunk — every other chunk of the stream crosses the wire once.
func TestSingleLostChunkResendsOnlyThatChunk(t *testing.T) {
	const rows = 3000
	keys := workload.Keys(61, rows, 800)
	vals := workload.Values64(62, rows, workload.MixedMag)
	want := refGroups(keys, vals)

	victim := chunkID{from: 1, to: 0, seq: seqShuffle, chunk: 2}
	var counters []*chunkCounter
	var mu sync.Mutex
	factory := countingFactory(func(n int) (Transport, error) {
		return &oneChunkBlackhole{Transport: NewChanTransport(n), victim: victim, kind: KindGroups}, nil
	}, &counters, &mu)

	// The generous deadline means the only silence the receiver ever
	// sees is the lost chunk: by the time the re-request round fires,
	// every other stream has long completed, so the round asks for
	// exactly the one missing chunk.
	lk, lv := dealRows(keys, vals, 2)
	cfg := Config{NewTransport: factory, ChildDeadline: 250 * time.Millisecond, MaxResend: -1, MaxChunkPayload: 2048}
	out, err := AggregateByKeyConfig(lk, lv, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGroups(t, out, want, 2, 2)

	c := counters[0]
	c.mu.Lock()
	defer c.mu.Unlock()
	if got := c.sends[victim]; got < 2 {
		t.Fatalf("victim chunk transmitted %d times, want ≥2 (drop + retransmit)", got)
	}
	for id, n := range c.sends {
		if id != victim && n != 1 {
			t.Fatalf("chunk %+v transmitted %d times; only the lost chunk may be retransmitted", id, n)
		}
	}
}

// TestChunkedGatherBeyondSingleFrame: the owner → root gather path also
// chunks: many distinct keys with a tiny chunk payload, gather streams
// reassembled at the root, bits identical to the reference.
func TestChunkedGatherBeyondSingleFrame(t *testing.T) {
	const rows = 4000
	keys := workload.Keys(71, rows, 900)
	vals := workload.Values64(72, rows, workload.MixedMag)
	want := refGroups(keys, vals)

	cfg := Config{MaxChunkPayload: 512}
	for _, nodes := range []int{3, 7} {
		lk, lv := dealRows(keys, vals, nodes)
		out, err := AggregateByKeyConfig(lk, lv, 2, cfg)
		if err != nil {
			t.Fatalf("n=%d: %v", nodes, err)
		}
		checkGroups(t, out, want, nodes, 2)
	}
}
