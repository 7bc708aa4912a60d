package dist

import (
	"bytes"
	"testing"

	"repro/internal/rsum"
)

// FuzzFrameDecode: arbitrary wire bytes must never panic the frame
// decoder, never over-consume the buffer, and anything the decoder
// accepts must re-encode to exactly the consumed bytes (the codec is
// canonical). The seed corpus holds valid frames — including one
// carrying a real marshaled summation state as a reduction's shuffle
// record — plus bit-flipped and truncated mutations, mirroring line
// corruption.
func FuzzFrameDecode(f *testing.F) {
	s := rsum.NewState64(2)
	s.AddSlice([]float64{1.5, -2.25, 1e300, -1e300, 0x1p-1060})
	enc, _ := s.MarshalBinary()
	record := append([]byte{0, 0, 0, 0, byte(len(enc)), 0, 0, 0}, enc...) // ⟨key 0, length, state⟩

	seeds := [][]byte{
		EncodeFrame(Frame{Kind: KindGroups, From: 3, To: 0, Chunks: 1, Payload: record}),
		EncodeFrame(Frame{Kind: KindGroups, From: 0, To: 1, Seq: seqShuffle, Chunks: 1}),
		EncodeFrame(Frame{Kind: KindGather, From: 2, To: 0, Seq: seqGather, Chunks: 1, Payload: []byte{1, 2, 3}}),
		EncodeFrame(Frame{Kind: KindGroups, From: 2, To: 0, Seq: seqShuffle, Chunk: 1, Chunks: 3, Payload: []byte{9, 9}}),
		EncodeFrame(Frame{Kind: KindResend, From: 1, To: 2}),
		EncodeFrame(Frame{Kind: KindResend, From: 1, To: 2, Chunk: 7, Chunks: 1}),
		EncodeFrame(Frame{Kind: KindError, From: 1, To: 0, Chunks: 1, Payload: []byte("boom")}),
		{},
	}
	for _, sd := range seeds {
		f.Add(sd)
		if len(sd) > 0 {
			for _, bit := range []int{0, 17, 8 * 3, 8*16 + 1, 8*len(sd) - 1} {
				if bit/8 < len(sd) {
					mut := append([]byte(nil), sd...)
					mut[bit/8] ^= 1 << (bit % 8)
					f.Add(mut)
				}
			}
			f.Add(sd[:len(sd)/2])
			f.Add(append(append([]byte(nil), sd...), sd...)) // two frames back to back
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			// Rejected: ReadFrame over the same bytes must also reject.
			if _, rerr := ReadFrame(bytes.NewReader(data)); rerr == nil {
				t.Fatal("DecodeFrame rejected but ReadFrame accepted")
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Canonical: re-encoding reproduces the consumed bytes exactly.
		if !bytes.Equal(EncodeFrame(fr), data[:n]) {
			t.Fatal("accepted frame does not re-encode to its wire bytes")
		}
		// Stream reader must agree with the slice decoder.
		sf, serr := ReadFrame(bytes.NewReader(data))
		if serr != nil {
			t.Fatalf("DecodeFrame accepted but ReadFrame failed: %v", serr)
		}
		if sf.Kind != fr.Kind || sf.From != fr.From || sf.To != fr.To ||
			sf.Seq != fr.Seq || !bytes.Equal(sf.Payload, fr.Payload) {
			t.Fatal("ReadFrame and DecodeFrame disagree")
		}
		// A shuffle record that claims to carry a partial state must
		// never panic or corrupt an accumulator, even if the frame
		// header was valid.
		if fr.Kind == KindGroups {
			_ = walkFrame(fr.Payload, func(_ uint32, state []byte) error {
				acc := rsum.NewState64(2)
				acc.Add(42.5)
				before := acc
				if err := acc.MergeBinary(state); err != nil {
					if !acc.Equal(&before) {
						t.Fatal("failed MergeBinary mutated the accumulator")
					}
				} else {
					_ = acc.Value()
				}
				return nil
			})
		}
	})
}

// FuzzChunkReassembly: arbitrary chunk sequences — malformed,
// duplicated, truncated, reordered, shape-shifting mid-stream — must
// never panic the reassembler, never complete a message twice, and
// never yield a short or wrong payload silently: every completed
// message is checked against an independent first-wins ledger of the
// chunks that were actually fed. The input is a wire byte stream (so
// the corpus composes with FuzzFrameDecode's bit-flip mutations), and
// when the stream ends the same bytes are round-tripped through
// SplitFrame under reversal and duplication, which must reassemble to
// exactly the input.
func FuzzChunkReassembly(f *testing.F) {
	s := rsum.NewState64(2)
	s.AddSlice([]float64{1.5, -2.25, 1e300, -1e300, 0x1p-1060})
	enc, _ := s.MarshalBinary()

	stream := func(frames ...Frame) []byte {
		var b []byte
		for _, fr := range frames {
			b = AppendFrame(b, fr)
		}
		return b
	}
	threeChunks := SplitFrame(Frame{Kind: KindGroups, From: 2, To: 0, Seq: 0, Payload: enc}, (len(enc)+2)/3)
	seeds := [][]byte{
		stream(threeChunks...),                                 // in order
		stream(threeChunks[2], threeChunks[0], threeChunks[1]), // out of order
		stream(threeChunks[0], threeChunks[0], threeChunks[1]), // duplicated, truncated
		stream(threeChunks[1]),                                 // lone middle chunk
		stream( // stream changes shape mid-flight
			Frame{Kind: KindGroups, From: 1, To: 0, Seq: 0, Chunk: 0, Chunks: 3, Payload: []byte("ab")},
			Frame{Kind: KindGroups, From: 1, To: 0, Seq: 0, Chunk: 1, Chunks: 4, Payload: []byte("cd")},
			Frame{Kind: KindGather, From: 1, To: 0, Seq: 0, Chunk: 1, Chunks: 3, Payload: []byte("ef")}),
		stream( // empty chunk of a multi-chunk message
			Frame{Kind: KindGroups, From: 3, To: 0, Seq: 0, Chunk: 0, Chunks: 2}),
		{},
	}
	for _, sd := range seeds {
		f.Add(sd)
		if len(sd) > 0 {
			for _, bit := range []int{8 * 3, 8 * 16, 8 * 20, 8*24 + 2} {
				if bit/8 < len(sd) {
					mut := append([]byte(nil), sd...)
					mut[bit/8] ^= 1 << (bit % 8)
					f.Add(mut)
				}
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Part 1: feed whatever frames the bytes decode to, checking
		// every completion against an independent ledger. The stride is
		// the first non-final chunk's size, the one a run's senders
		// would all have split at, so well-formed streams complete.
		// Streams can declare buffers (stride × chunk count) beyond what
		// the fed bytes deliver, so the budget — which charges whole
		// declared buffers at allocation — may reject frames; the ledger
		// mirrors any accept error by simply not recording the frame.
		// Budget behavior has its own tests.
		var frames []Frame
		for rest := data; len(rest) > 0; {
			fr, n, err := DecodeFrame(rest)
			if err != nil {
				break
			}
			rest = rest[n:]
			if fr.Kind != KindResend { // control frame, never reassembled
				frames = append(frames, fr)
			}
		}
		stride := 1
		for _, fr := range frames {
			if fr.Chunk+1 < fr.Chunks && len(fr.Payload) > 0 {
				stride = len(fr.Payload)
				break
			}
		}
		asm := NewReassembler(len(data)+1, stride)
		type ledger struct {
			kind      byte
			total     uint32
			chunks    map[uint32][]byte
			completed bool
		}
		led := make(map[uint64]*ledger)
		for _, fr := range frames {
			msg, complete, _, aerr := asm.Accept(fr)

			// Mirror accept's acceptance rules into the ledger.
			key := dedupKey(fr.From, fr.Seq)
			l := led[key]
			switch {
			case aerr != nil:
				if complete {
					t.Fatal("accept returned both a completion and an error")
				}
				continue
			case l != nil && l.completed:
				if complete {
					t.Fatalf("stream (from %d, seq %d) completed twice", fr.From, fr.Seq)
				}
				continue
			case fr.Chunks == 1:
				if !complete || !bytes.Equal(msg.Payload, fr.Payload) {
					t.Fatal("single-chunk message not handed over verbatim")
				}
				led[key] = &ledger{completed: true}
				continue
			}
			if l == nil {
				l = &ledger{kind: fr.Kind, total: fr.Chunks, chunks: make(map[uint32][]byte)}
				led[key] = l
			}
			if _, dup := l.chunks[fr.Chunk]; !dup {
				l.chunks[fr.Chunk] = fr.Payload
			}
			if complete {
				if len(l.chunks) != int(l.total) {
					t.Fatalf("completed with %d of %d chunks", len(l.chunks), l.total)
				}
				var want []byte
				for i := uint32(0); i < l.total; i++ {
					want = append(want, l.chunks[i]...)
				}
				if !bytes.Equal(msg.Payload, want) {
					t.Fatal("completed payload differs from the chunks that were fed")
				}
				l.completed = true
			}
		}

		// Part 2: the same bytes as a logical payload must round-trip
		// through SplitFrame → reassembler under reordering and
		// duplication, bit-exactly.
		maxChunk := 1
		if len(data) > 0 {
			maxChunk = int(data[0])%len(data) + 1
		}
		// Keep the split within the per-message chunk-count bound: an
		// input over MaxChunksPerMessage bytes with a tiny chunk size
		// would be (correctly) rejected by the reassembler, which is
		// not what this round-trip measures.
		if minChunk := (len(data) + MaxChunksPerMessage - 1) / MaxChunksPerMessage; maxChunk < minChunk {
			maxChunk = minChunk
		}
		chunks := SplitFrame(Frame{Kind: KindGather, From: 7, To: 0, Seq: 1, Payload: data}, maxChunk)
		rt := NewReassembler(0, maxChunk)
		var got []byte
		completions := 0
		for i := len(chunks) - 1; i >= 0; i-- { // reversed, every chunk duplicated
			for pass := 0; pass < 2; pass++ {
				msg, complete, _, err := rt.Accept(chunks[i])
				if err != nil {
					t.Fatalf("round-trip chunk %d: %v", i, err)
				}
				if complete {
					completions++
					got = msg.Payload
				}
			}
		}
		if completions != 1 {
			t.Fatalf("round-trip completed %d times, want 1", completions)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round-trip payload: %d bytes, want %d", len(got), len(data))
		}
	})
}
