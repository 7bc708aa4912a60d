package dist

import (
	"bytes"
	"errors"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/rsum"
	"repro/internal/workload"
)

// --- frame codec ---

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: KindGroups, From: 3, To: 0, Seq: 0, Chunks: 1, Payload: []byte("partial-state")},
		{Kind: KindGroups, From: 0, To: 7, Seq: seqShuffle, Chunks: 1, Payload: nil},
		{Kind: KindGather, From: 61, To: 0, Seq: seqGather, Chunks: 1, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{Kind: KindGroups, From: 4, To: 2, Seq: seqShuffle, Chunk: 2, Chunks: 5, Payload: []byte("mid-chunk")},
		{Kind: KindResend, From: 0, To: 5},                      // whole-stream re-request
		{Kind: KindResend, From: 0, To: 5, Chunk: 3, Chunks: 1}, // single-chunk re-request
		{Kind: KindError, From: 2, To: 1, Chunks: 1, Payload: []byte("node 2: boom")},
	}
	var wire []byte
	for _, f := range frames {
		wire = AppendFrame(wire, f)
	}
	// Decode the concatenated stream frame by frame.
	rest := wire
	for i, want := range frames {
		got, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.From != want.From || got.To != want.To ||
			got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding all frames", len(rest))
	}
	// ReadFrame over the same stream must agree.
	r := bytes.NewReader(wire)
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("ReadFrame %d mismatch", i)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

func TestFrameDecodeRejectsCorruption(t *testing.T) {
	good := EncodeFrame(Frame{Kind: KindGroups, From: 1, To: 2, Seq: 9, Chunks: 1, Payload: []byte("hello world")})

	// Every single-bit flip must be rejected (magic, version, kind,
	// routing, length, payload, or CRC damage — the checksum catches
	// whatever the structural checks do not).
	for bit := 0; bit < 8*len(good); bit++ {
		bad := append([]byte(nil), good...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, _, err := DecodeFrame(bad); err == nil {
			t.Fatalf("bit flip at %d accepted", bit)
		}
	}
	// Every truncation must be rejected.
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := DecodeFrame(good[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
		if _, err := ReadFrame(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("ReadFrame truncation to %d bytes accepted", cut)
		}
	}
	// A huge length prefix must be rejected without allocating.
	huge := append([]byte(nil), good...)
	huge[24], huge[25], huge[26], huge[27] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized length: got %v, want ErrBadFrame", err)
	}
	if _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("ReadFrame oversized length: got %v, want ErrBadFrame", err)
	}
	// Invalid chunk headers must be rejected at the trust boundary.
	bad := []Frame{
		{Kind: KindGroups, Chunks: 0},                       // data frame without a chunk count
		{Kind: KindGroups, Chunk: 3, Chunks: 3},             // index out of range
		{Kind: KindGather, Chunks: MaxChunksPerMessage + 1}, // hostile chunk count
		{Kind: KindResend, Chunk: 0, Chunks: 2},             // resend selector beyond 0/1
	}
	for i, f := range bad {
		if _, _, err := DecodeFrame(EncodeFrame(f)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("bad chunk header %d: got %v, want ErrBadFrame", i, err)
		}
	}
}

// --- transports ---

// transports lists the implementations under test by name.
func transportFactories() map[string]TransportFactory {
	return map[string]TransportFactory{
		"chan": ChanTransportFactory,
		"tcp":  TCPTransportFactory,
	}
}

// TestTCPFrameOverWire pins that TCP really moves the canonical state
// encoding through a socket: marshal on one node, MergeBinary on the
// other side, bits preserved.
func TestTCPFrameOverWire(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	s := rsum.NewState64(levels)
	s.AddSliceVec(workload.Values64(5, 1000, workload.MixedMag))
	enc, _ := s.MarshalBinary()
	if err := tr.Send(Frame{Kind: KindGroups, From: 1, To: 0, Chunks: 1, Payload: enc}); err != nil {
		t.Fatal(err)
	}
	f, err := tr.Recv(0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var got rsum.State64
	if err := got.UnmarshalBinary(f.Payload); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(&s) {
		t.Fatal("state bits changed crossing the TCP transport")
	}
}

// --- cross-transport equivalence matrix (the PR's acceptance bar) ---

// faultPlans enumerates the fault-injection cells of the matrix. Delays
// are kept small so the full matrix stays fast under -race.
func faultPlans() map[string]*FaultPlan {
	return map[string]*FaultPlan{
		"none":    nil,
		"delay":   {Seed: 1, MaxDelay: 300 * time.Microsecond},
		"dup":     {Seed: 2, DupProb: 0.5},
		"drop":    {Seed: 3, DropProb: 0.4, RetryDelay: 200 * time.Microsecond},
		"reorder": {Seed: 4, Reorder: true, RetryDelay: 200 * time.Microsecond},
		"chaos": {Seed: 5, DropProb: 0.3, DupProb: 0.3, MaxDelay: 200 * time.Microsecond,
			RetryDelay: 100 * time.Microsecond, Reorder: true},
	}
}

// matrixConfig builds the Config for one matrix cell, with a short
// straggler deadline so the re-request path genuinely runs under the
// dropping/delaying plans, and no give-up cap: spurious re-requests
// are harmless, and a bounded cap would race the race detector's
// scheduling slowdown (give-up behavior has its own dedicated tests).
func matrixConfig(factory TransportFactory, plan *FaultPlan) Config {
	return Config{
		NewTransport:  factory,
		Faults:        plan,
		ChildDeadline: 2 * time.Millisecond,
		MaxResend:     -1,
	}
}

// TestReduceTransportMatrix: every (cluster size × transport × fault
// plan) cell must produce bits identical to a single-threaded
// sequential sum of the same values.
func TestReduceTransportMatrix(t *testing.T) {
	const n = 4000
	vals := workload.Values64(17, n, workload.MixedMag)
	ref := rsum.NewState64(levels)
	ref.AddSliceVec(vals)
	want := math.Float64bits(ref.Value())

	sizes := []int{1, 2, 5, 16}
	for tname, factory := range transportFactories() {
		for pname, plan := range faultPlans() {
			t.Run(tname+"/"+pname, func(t *testing.T) {
				t.Parallel()
				for _, nodes := range sizes {
					got, err := ReduceConfig(shard(vals, nodes), 2, matrixConfig(factory, plan))
					if err != nil {
						t.Fatalf("n=%d: %v", nodes, err)
					}
					if bits := math.Float64bits(got); bits != want {
						t.Fatalf("n=%d: %016x, want %016x", nodes, bits, want)
					}
				}
			})
		}
	}
}

// TestAggregateByKeyTransportMatrix: the GROUP BY shuffle under every
// transport × fault plan matches the sequential per-key reference.
func TestAggregateByKeyTransportMatrix(t *testing.T) {
	const n = 6000
	keys := workload.Keys(18, n, 200)
	vals := workload.Values64(19, n, workload.MixedMag)
	want := refGroups(keys, vals)

	sizes := []int{1, 3, 8}
	for tname, factory := range transportFactories() {
		for pname, plan := range faultPlans() {
			t.Run(tname+"/"+pname, func(t *testing.T) {
				t.Parallel()
				for _, nodes := range sizes {
					lk, lv := dealRows(keys, vals, nodes)
					out, err := AggregateByKeyConfig(lk, lv, 2, matrixConfig(factory, plan))
					if err != nil {
						t.Fatalf("n=%d: %v", nodes, err)
					}
					checkGroups(t, out, want, nodes, 2)
				}
			})
		}
	}
}

// TestStragglerRerequest forces the straggler path deterministically: a
// transport that swallows the first transmission of every non-root
// node's shuffle chunk, partial included, so owners only make progress
// through deadline → re-request → retransmit.
func TestStragglerRerequest(t *testing.T) {
	const n = 2000
	vals := workload.Values64(23, n, workload.MixedMag)
	ref := rsum.NewState64(levels)
	ref.AddSliceVec(vals)
	want := math.Float64bits(ref.Value())

	var hole *firstSendBlackhole
	factory := func(n int) (Transport, error) {
		hole = &firstSendBlackhole{Transport: NewChanTransport(n), dropped: make(map[chunkID]bool)}
		return hole, nil
	}
	cfg := Config{NewTransport: factory, ChildDeadline: 2 * time.Millisecond, MaxResend: -1}
	got, err := ReduceConfig(shard(vals, 6), 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bits := math.Float64bits(got); bits != want {
		t.Fatalf("%016x, want %016x", bits, want)
	}
	if !hole.dropped[chunkID{1, 0, seqShuffle, 0}] {
		t.Fatal("node 1's partial to the root was never swallowed")
	}
}

// TestStragglerGivesUp: a node whose partial never arrives must
// surface ErrStraggler instead of hanging.
func TestStragglerGivesUp(t *testing.T) {
	factory := func(n int) (Transport, error) {
		return &partialBlackhole{Transport: NewChanTransport(n)}, nil
	}
	cfg := Config{NewTransport: factory, ChildDeadline: time.Millisecond, MaxResend: 3}
	_, err := ReduceConfig([][]float64{{1}, {2}}, 1, cfg)
	if !errors.Is(err, ErrStraggler) {
		t.Fatalf("got %v, want ErrStraggler", err)
	}
}

// TestGroupByStragglerRerequest forces the shuffle's re-request path:
// the first transmission of every shuffle and gather frame is
// swallowed, so owners only make progress through deadline →
// re-request → retransmit-from-cache.
func TestGroupByStragglerRerequest(t *testing.T) {
	const n = 3000
	keys := workload.Keys(41, n, 100)
	vals := workload.Values64(43, n, workload.MixedMag)
	want := refGroups(keys, vals)

	factory := func(n int) (Transport, error) {
		return &firstSendBlackhole{
			Transport: NewChanTransport(n),
			kinds:     map[byte]bool{KindGroups: true, KindGather: true},
			dropped:   make(map[chunkID]bool),
		}, nil
	}
	for _, nodes := range []int{2, 5} {
		lk, lv := dealRows(keys, vals, nodes)
		cfg := Config{NewTransport: factory, ChildDeadline: 2 * time.Millisecond, MaxResend: -1}
		out, err := AggregateByKeyConfig(lk, lv, 2, cfg)
		if err != nil {
			t.Fatalf("n=%d: %v", nodes, err)
		}
		checkGroups(t, out, want, nodes, 2)
	}
}

// TestGroupByStragglerGivesUp: a shuffle whose frames never arrive must
// surface ErrStraggler instead of hanging.
func TestGroupByStragglerGivesUp(t *testing.T) {
	factory := func(n int) (Transport, error) {
		return &kindBlackhole{Transport: NewChanTransport(n), kind: KindGroups}, nil
	}
	cfg := Config{NewTransport: factory, ChildDeadline: time.Millisecond, MaxResend: 3}
	_, err := AggregateByKeyConfig([][]uint32{{1}, {2}}, [][]float64{{1}, {2}}, 1, cfg)
	if !errors.Is(err, ErrStraggler) {
		t.Fatalf("got %v, want ErrStraggler", err)
	}
}

// firstSendBlackhole swallows the first transmission of every distinct
// chunk of the selected kinds (default: non-root nodes' shuffle chunks,
// which carry the reduction's partials); retransmissions (triggered by
// chunk-level re-requests) pass.
type firstSendBlackhole struct {
	Transport
	kinds   map[byte]bool // nil means KindGroups from non-root nodes
	mu      sync.Mutex
	dropped map[chunkID]bool
}

// chunkID identifies one wire chunk: the shuffle sends one message per
// destination on the same stream, and a message has many chunks.
type chunkID struct {
	from, to int
	seq      uint32
	chunk    uint32
}

func (b *firstSendBlackhole) Send(f Frame) error {
	match := f.Kind == KindGroups && f.From != 0
	if b.kinds != nil {
		match = b.kinds[f.Kind]
	}
	if match {
		k := chunkID{f.From, f.To, f.Seq, f.Chunk}
		b.mu.Lock()
		first := !b.dropped[k]
		b.dropped[k] = true
		b.mu.Unlock()
		if first {
			return nil // swallowed
		}
	}
	return b.Transport.Send(f)
}

// partialBlackhole swallows every shuffle chunk of a non-root node, so
// those nodes' partials never arrive.
type partialBlackhole struct{ Transport }

func (b *partialBlackhole) Send(f Frame) error {
	if f.Kind == KindGroups && f.From != 0 {
		return nil
	}
	return b.Transport.Send(f)
}

// kindBlackhole swallows every frame of one kind.
type kindBlackhole struct {
	Transport
	kind byte
}

func (b *kindBlackhole) Send(f Frame) error {
	if f.Kind == b.kind {
		return nil
	}
	return b.Transport.Send(f)
}

// TestShuffleBeyondOldFrameCeiling: a shuffle payload exceeding the old
// 16 MiB per-(sender, owner) frame ceiling — which used to fail fast
// with ErrBadFrame — now travels as a chunk stream and produces the
// correct bits on every transport. This is the scale step the chunking
// refactor exists for.
func TestShuffleBeyondOldFrameCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("moves ~20 MiB per transport")
	}
	// ~300k distinct keys all owned by one node: the logical shuffle
	// payload is ~18 MiB (60 B per ⟨key, state⟩ pair at the default
	// L=2), forcing ≥2 chunks even at the default 16 MiB chunk payload.
	const nkeys = 300_000
	keys := make([]uint32, nkeys)
	vals := make([]float64, nkeys)
	for i := range keys {
		keys[i] = uint32(i)
		vals[i] = float64(i%97) + 0.5
	}
	for name, factory := range transportFactories() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{NewTransport: factory}
			out, err := AggregateByKeyConfig([][]uint32{keys}, [][]float64{vals}, 2, cfg)
			if err != nil {
				t.Fatalf("chunked shuffle past the old ceiling: %v", err)
			}
			if len(out) != nkeys {
				t.Fatalf("%d groups, want %d", len(out), nkeys)
			}
			for i, g := range out {
				if g.Key != uint32(i) || g.Sum != float64(i%97)+0.5 {
					t.Fatalf("group %d = {%d, %v}", i, g.Key, g.Sum)
				}
			}
		})
	}
}

// TestReassemblyBudgetEnforced: a logical message larger than the
// reassembly budget must fail with ErrChunkBudget — surfaced through
// the facade-visible error chain, not an OOM or a hang.
func TestReassemblyBudgetEnforced(t *testing.T) {
	const nkeys = 2_000 // ~120 KB logical shuffle payload
	keys := make([]uint32, nkeys)
	vals := make([]float64, nkeys)
	for i := range keys {
		keys[i] = uint32(i)
		vals[i] = 1
	}
	cfg := Config{ReassemblyBudget: 32 << 10, MaxChunkPayload: 4 << 10}
	_, err := AggregateByKeyConfig([][]uint32{keys}, [][]float64{vals}, 2, cfg)
	if !errors.Is(err, ErrChunkBudget) {
		t.Fatalf("got %v, want ErrChunkBudget", err)
	}
}

// TestChunkCountBoundEnforcedSenderSide: a chunk payload so small that
// the message would need more than MaxChunksPerMessage chunks must fail
// deterministically on the sender — no receiver would accept the
// stream, and over TCP the rejected chunks would otherwise spin the
// re-request loop forever under MaxResend < 0.
func TestChunkCountBoundEnforcedSenderSide(t *testing.T) {
	const nkeys = 20_000 // ~1.2 MB logical payload > 1 B × MaxChunksPerMessage
	keys := make([]uint32, nkeys)
	vals := make([]float64, nkeys)
	for i := range keys {
		keys[i] = uint32(i)
		vals[i] = 1
	}
	cfg := Config{MaxChunkPayload: 1, MaxResend: -1, ChildDeadline: time.Millisecond}
	done := make(chan error, 1)
	go func() {
		_, err := AggregateByKeyConfig([][]uint32{keys}, [][]float64{vals}, 2, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrChunkBudget) {
			t.Fatalf("got %v, want ErrChunkBudget", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("over-chunked message hung instead of failing sender-side")
	}
}

// TestHostileChunksRejected: a peer declaring a hostile chunk stream —
// huge chunk counts, oversized buffering — must yield an error on the
// receive path, never an OOM. Frames are injected directly through a
// ChanTransport (bypassing the wire decoder), so this also pins that
// the reassembler revalidates chunk headers itself.
func TestHostileChunksRejected(t *testing.T) {
	hostile := []Frame{
		// Declares a chunk count past the per-message bound.
		{Kind: KindGroups, From: 1, To: 0, Seq: 0, Chunk: 0, Chunks: MaxChunksPerMessage + 1, Payload: []byte("x")},
		// Index out of declared range.
		{Kind: KindGroups, From: 1, To: 0, Seq: 0, Chunk: 5, Chunks: 2, Payload: []byte("x")},
		// Empty chunk of a multi-chunk message.
		{Kind: KindGroups, From: 1, To: 0, Seq: 0, Chunk: 0, Chunks: 2},
	}
	for i, h := range hostile {
		h := h
		factory := func(n int) (Transport, error) {
			inner := NewChanTransport(n)
			_ = inner.Send(h) // pre-load the hostile frame in node 0's inbox
			return inner, nil
		}
		cfg := Config{NewTransport: factory, ChildDeadline: 50 * time.Millisecond, MaxResend: 2}
		_, err := ReduceConfig([][]float64{{1}, {2}}, 1, cfg)
		if err == nil {
			t.Fatalf("hostile frame %d: reduction succeeded", i)
		}
	}
}

// TestConfigRejectsMismatchedTransport: a factory returning the wrong
// cluster size must be rejected, not deadlock.
func TestConfigRejectsMismatchedTransport(t *testing.T) {
	cfg := Config{NewTransport: func(n int) (Transport, error) {
		return NewChanTransport(n + 1), nil
	}}
	if _, err := ReduceConfig([][]float64{{1}, {2}}, 1, cfg); err == nil {
		t.Fatal("mismatched transport accepted")
	}
}
