package proc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/sqlagg"
	"repro/internal/workload"
)

// Tests of the rows stream: the encoder that walks the caller's shards
// (rowStream), the worker-side sink that fills the job's input in place
// (rowSink), the control connection that hands the chunks over as they
// arrive and reads every other message in order, and the supervisor's
// concurrent shippers.

// twoColSpecs reads value columns 0 and 1.
func twoColSpecs() []sqlagg.AggSpec {
	return []sqlagg.AggSpec{
		{Kind: sqlagg.AggSum, Levels: core.DefaultLevels, Col: 0},
		{Kind: sqlagg.AggAvg, Levels: core.DefaultLevels, Col: 1},
	}
}

// dealtRows cuts rows of keys and two value columns into nshards shards
// of uneven sizes; every third shard is empty and omits its columns.
func dealtRows(rows, nshards int) (keys [][]uint32, cols [][][]float64) {
	k := workload.Keys(3, rows, 1<<12)
	a := workload.Values64(5, rows, workload.MixedMag)
	b := workload.Values64(7, rows, workload.Exp1)
	keys, cols = make([][]uint32, nshards), make([][][]float64, nshards)
	full := 0
	for i := 0; i < nshards; i++ {
		if i%3 != 1 || nshards == 1 {
			full++
		}
	}
	at := 0
	for i, seen := 0, 0; i < nshards; i++ {
		if i%3 == 1 && nshards > 1 {
			keys[i], cols[i] = []uint32{}, nil
			continue
		}
		seen++
		end := at + rows/full + i // uneven on purpose
		if seen == full {
			end = rows
		}
		keys[i], cols[i] = k[at:end], [][]float64{a[at:end], b[at:end]}
		at = end
	}
	return keys, cols
}

// frames drains a rows stream into frames that own their payloads, as
// shipRows numbers them.
func frames(st *rowStream, maxBytes int) []dist.Frame {
	var out []dist.Frame
	f := dist.Frame{Kind: dist.KindRows}
	f.Chunks, _ = st.size(maxBytes)
	for {
		p, ok := st.next(nil, maxBytes)
		if !ok {
			return out
		}
		f.Payload = p
		out = append(out, f)
		f.Chunk++
	}
}

// TestRowStreamRoundTrip: for every dealing of {1, 2, 3, 7} shards (some
// empty, sizes uneven, a row count no chunk size divides) to {1, 2, 3}
// nodes, group-by and reduction alike, the chunks the encoder cuts from
// the caller's shards fill a sink with exactly the rows of the shards
// i ≡ id mod n, in order; and the job payload followed by the chunk
// payloads is byte for byte what EncodeJobPayload reports.
func TestRowStreamRoundTrip(t *testing.T) {
	const rows = 100_003
	for _, nshards := range []int{1, 2, 3, 7} {
		keys, cols := dealtRows(rows, nshards)
		var vals [][]float64
		for _, c := range cols {
			if c == nil {
				vals = append(vals, []float64{})
			} else {
				vals = append(vals, c[0])
			}
		}
		jobs := map[string]Job{
			"groupby": {Specs: twoColSpecs(), Source: RowShards(keys, cols)},
			"reduce":  {Source: ValueShards(vals)},
		}
		for name, job := range jobs {
			for _, n := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/shards=%d/nodes=%d", name, nshards, n), func(t *testing.T) {
					rs, err := newRunState(evRun{job: job}, 0, n)
					if err != nil {
						t.Fatal(err)
					}
					total := 0
					for id := 0; id < n; id++ {
						wire, err := rs.payloadFor(id, 0)
						if err != nil {
							t.Fatal(err)
						}
						js, err := decodeJobSpec(wire)
						if err != nil {
							t.Fatal(err)
						}
						sink, err := newRowSink(js, ctlBudget, nil)
						if err != nil {
							t.Fatal(err)
						}
						fs := frames(rs.rowStream(id, 0), rowChunkBytes)
						for _, f := range fs {
							if sink.complete() {
								t.Fatalf("node %d: sink complete with chunk %d of %d still to come", id, f.Chunk, f.Chunks)
							}
							if err := sink.accept(f); err != nil {
								t.Fatalf("node %d chunk %d: %v", id, f.Chunk, err)
							}
							wire = append(wire, f.Payload...)
						}
						if !sink.complete() {
							t.Fatalf("node %d: sink incomplete after %d chunks", id, len(fs))
						}
						var wantKeys []uint32
						wantCols := make([][]float64, js.ncols)
						for i := id; i < nshards; i += n {
							wantKeys = append(wantKeys, keys[i]...)
							for c := range wantCols {
								if len(keys[i]) > 0 {
									wantCols[c] = append(wantCols[c], job.Source.cols[i][c]...)
								}
							}
						}
						if name == "groupby" && !slices.Equal(sink.keys, wantKeys) {
							t.Errorf("node %d: keys differ from the node's shards", id)
						}
						for c := range wantCols {
							if !equalBits(sink.cols[c], wantCols[c]) {
								t.Errorf("node %d: column %d differs from the node's shards", id, c)
							}
						}
						total += sink.rows
						got, err := EncodeJobPayload(job, n, id)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, wire) {
							t.Errorf("node %d: EncodeJobPayload is %d bytes, the job spec + chunks on the wire are %d, or they differ",
								id, len(got), len(wire))
						}
					}
					if total != rows {
						t.Errorf("nodes received %d rows in all, want %d", total, rows)
					}
				})
			}
		}
	}
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// smallStream is a 3-row, 2-column group-by stream cut into 8-byte
// chunks — [k0 k1] [k2] [a0] [a1] [a2] [b0] [b1] [b2] — and the job
// spec that announces it.
func smallStream(t *testing.T, jobIdx, inc int) (jobSpec, []dist.Frame) {
	t.Helper()
	src := RowShards([][]uint32{{5, 6, 7}}, [][][]float64{{{1.5, -2, math.Inf(1)}, {4, 5, 6}}})
	js := jobSpec{jobIdx: jobIdx, incarnation: inc, workers: 1,
		specs: twoColSpecs(), rows: 3, ncols: 2}
	return js, frames(newRowStream(&src, 2, 1, 0, jobIdx, inc), 8)
}

// patch returns f with its chunk payload rewritten by edit.
func patch(f dist.Frame, edit func(p []byte)) dist.Frame {
	f.Payload = append([]byte(nil), f.Payload...)
	edit(f.Payload)
	return f
}

// TestRowSinkRejections names every way a declared shape or a chunk
// sequence is refused — each a typed error, none a panic — and the two
// that must not be refused: a straggler of another incarnation, and a
// whole second stream on a connection that already carried one.
func TestRowSinkRejections(t *testing.T) {
	js, fs := smallStream(t, 4, 1)
	if len(fs) != 8 {
		t.Fatalf("the 3×2 stream cut into 8-byte chunks is %d chunks, want 8", len(fs))
	}

	t.Run("rows × width over budget, before any allocation", func(t *testing.T) {
		huge := js
		huge.rows = math.MaxInt / 2
		if _, err := newRowSink(huge, ctlBudget, nil); !errors.Is(err, dist.ErrChunkBudget) {
			t.Fatalf("err = %v, want ErrChunkBudget", err)
		}
		tight := js
		tight.rows = 1000
		if _, err := newRowSink(tight, 1000*20-1, nil); !errors.Is(err, dist.ErrChunkBudget) {
			t.Fatalf("1000 rows of 20 bytes against a 19999-byte budget: err = %v, want ErrChunkBudget", err)
		}
		if _, err := newRowSink(tight, 1000*20, nil); err != nil {
			t.Fatalf("1000 rows of 20 bytes against a 20000-byte budget: %v", err)
		}
	})
	t.Run("reduction with ncols != 1", func(t *testing.T) {
		if _, err := encodeAndDecode(jobSpec{workers: 1, rows: 1, ncols: 2}); err == nil {
			t.Fatal("decoded without error")
		}
	})
	t.Run("ncols > maxJobCols", func(t *testing.T) {
		wide := js
		wide.ncols = maxJobCols + 1
		if _, err := encodeAndDecode(wide); err == nil {
			t.Fatal("decoded without error")
		}
	})

	cases := []struct {
		name string
		seq  func() []dist.Frame
	}{
		{"gap", func() []dist.Frame { return append(fs[:2:2], fs[3]) }},
		{"repeat", func() []dist.Frame { return append(fs[:2:2], fs[1]) }},
		{"wrong column", func() []dist.Frame {
			return append(fs[:3:3], patch(fs[3], func(p []byte) { binary.LittleEndian.PutUint16(p[8:], 2) }))
		}},
		{"overrun", func() []dist.Frame {
			return append(fs[:4:4], patch(fs[4], func(p []byte) { binary.LittleEndian.PutUint32(p[18:], 2) }))
		}},
		{"zero elements", func() []dist.Frame {
			f := patch(fs[0], func(p []byte) { binary.LittleEndian.PutUint32(p[18:], 0) })
			f.Payload = f.Payload[:rowChunkHdr]
			return []dist.Frame{f}
		}},
		{"count and bytes disagree", func() []dist.Frame {
			f := fs[0]
			f.Payload = f.Payload[:len(f.Payload)-1]
			return []dist.Frame{f}
		}},
		{"truncated header", func() []dist.Frame {
			f := fs[0]
			f.Payload = f.Payload[:rowChunkHdr-1]
			return []dist.Frame{f}
		}},
		{"stream ends short", func() []dist.Frame {
			short := make([]dist.Frame, 4)
			for i := range short {
				short[i] = fs[i]
				short[i].Chunks = 4
			}
			return short
		}},
		{"stream longer than declared", func() []dist.Frame {
			long := make([]dist.Frame, len(fs))
			for i := range long {
				long[i] = fs[i]
				long[i].Chunks = 9
			}
			return long
		}},
		{"extra chunk after completion", func() []dist.Frame { return append(fs[:8:8], fs[7]) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink, err := newRowSink(js, ctlBudget, nil)
			if err != nil {
				t.Fatal(err)
			}
			seq := tc.seq()
			for i, f := range seq {
				err := sink.accept(f)
				if i < len(seq)-1 {
					if err != nil {
						t.Fatalf("frame %d: %v (only the last should be refused)", i, err)
					}
					continue
				}
				if !errors.Is(err, dist.ErrBadFrame) {
					t.Fatalf("last frame: err = %v, want ErrBadFrame", err)
				}
			}
		})
	}

	t.Run("chunk of a stale incarnation ignored", func(t *testing.T) {
		_, old := smallStream(t, 4, 0)
		_, other := smallStream(t, 3, 1)
		sink, err := newRowSink(js, ctlBudget, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range fs {
			for _, stale := range []dist.Frame{old[(i+5)%8], other[i]} {
				if err := sink.accept(stale); err != nil {
					t.Fatalf("stale chunk: %v", err)
				}
			}
			if err := sink.accept(f); err != nil {
				t.Fatalf("chunk %d: %v", i, err)
			}
		}
		if !sink.complete() || !slices.Equal(sink.keys, []uint32{5, 6, 7}) || !equalBits(sink.cols[1], []float64{4, 5, 6}) {
			t.Fatalf("sink after interleaved stale chunks: complete %v, keys %v, cols %v", sink.complete(), sink.keys, sink.cols)
		}
	})

	// A second message on a completed (from, seq) stream must not be
	// swallowed. Row chunks are handed over as they arrive, so one
	// connection carries the stream of a job twice —
	// abandoned at incarnation 0, whole at incarnation 1, every frame on
	// one Seq — and read returns every chunk.
	t.Run("second rows stream on one connection accepted", func(t *testing.T) {
		_, old := smallStream(t, 4, 0)
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		sent := append(old[:5:5], fs...)
		go func() {
			w := newCtlConn(a, 0)
			for _, f := range sent {
				f.Seq = ctrlSeqJob(4)
				if w.send(f) != nil {
					return
				}
			}
		}()
		r := newCtlConn(b, 0)
		sink, err := newRowSink(js, ctlBudget, nil)
		if err != nil {
			t.Fatal(err)
		}
		b.SetReadDeadline(time.Now().Add(10 * time.Second))
		for i := range sent {
			f, err := r.read()
			if err != nil {
				t.Fatalf("read %d of %d: %v (a chunk was swallowed?)", i, len(sent), err)
			}
			if f.Kind != dist.KindRows || f.Chunk != sent[i].Chunk {
				t.Fatalf("read %d: kind %d chunk %d, want KindRows chunk %d", i, f.Kind, f.Chunk, sent[i].Chunk)
			}
			if err := sink.accept(f); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
		if !sink.complete() || !equalBits(sink.cols[0], []float64{1.5, -2, math.Inf(1)}) {
			t.Fatalf("sink after the second stream: complete %v, cols %v", sink.complete(), sink.cols)
		}
	})
}

// TestCtlConnRepeatedStream: a control connection remembers no
// completed stream, so every message arrives however many share a
// (from, seq) stream. Here two job specs do — a single-frame one and a
// chunked one, both on job 0's stream id — and a shutdown follows them.
func TestCtlConnRepeatedStream(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	sent := []dist.Frame{
		{Kind: dist.KindJob, Seq: ctrlSeqJob(0), Payload: []byte{1}},
		{Kind: dist.KindJob, Seq: ctrlSeqJob(0), Payload: bytes.Repeat([]byte{2}, 100)},
		{Kind: dist.KindShutdown, Seq: ctrlSeqCluster},
	}
	go func() {
		w := newCtlConn(a, 16) // the second job spec crosses as 7 chunks
		for _, f := range sent {
			if w.send(f) != nil {
				return
			}
		}
	}()
	r := newCtlConn(b, 0)
	b.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i, want := range sent {
		got, err := r.read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("read %d: kind %d seq %d with %d bytes, want kind %d seq %d with %d bytes (a message was swallowed?)",
				i, got.Kind, got.Seq, len(got.Payload), want.Kind, want.Seq, len(want.Payload))
		}
	}
}

// readRaw writes frames, as they are, to one end of a pipe and returns
// what a control connection on the other end reads.
func readRaw(t *testing.T, frames ...dist.Frame) (dist.Frame, error) {
	t.Helper()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		for _, f := range frames {
			if dist.WriteFrame(a, f) != nil {
				return
			}
		}
	}()
	b.SetReadDeadline(time.Now().Add(10 * time.Second))
	return newCtlConn(b, 0).read()
}

// TestCtlConnReadsMessagesInOrder: a control message is its first frame
// and the chunks that follow it on the connection. Chunks out of order,
// interleaved with another stream's frame or a rows chunk, or off the
// first chunk's stride are ErrBadFrame, and a message whose chunks could
// outgrow ctlBudget is ErrChunkBudget on its first frame.
func TestCtlConnReadsMessagesInOrder(t *testing.T) {
	msg := dist.Frame{Kind: dist.KindResult, Seq: ctrlSeqJob(1), Payload: bytes.Repeat([]byte{7}, 10)}
	c := dist.SplitFrame(msg, 4)
	other := dist.Frame{Kind: dist.KindResult, Seq: ctrlSeqJob(2), Chunks: 1, Payload: []byte{1}}
	rows := dist.Frame{Kind: dist.KindRows, Seq: ctrlSeqJob(1), Chunks: 1, Payload: []byte{2}}
	short := c[1]
	short.Payload = short.Payload[:3]
	if got, err := readRaw(t, c...); err != nil || !bytes.Equal(got.Payload, msg.Payload) || got.Chunks != 1 {
		t.Fatalf("in-order chunks: %d-chunk message of %d bytes, %v", got.Chunks, len(got.Payload), err)
	}
	for name, frames := range map[string][]dist.Frame{
		"reordered":              {c[0], c[2], c[1]},
		"opening on chunk 1":     {c[1], c[0], c[2]},
		"another stream between": {c[0], other, c[1], c[2]},
		"rows chunk between":     {c[0], rows, c[1], c[2]},
		"chunk off the stride":   {c[0], short, c[2]},
	} {
		if _, err := readRaw(t, frames...); !errors.Is(err, dist.ErrBadFrame) {
			t.Errorf("%s: %v, want ErrBadFrame", name, err)
		}
	}
	// The most chunks a message may declare, each just over 1 KiB, could
	// carry more than ctlBudget: refused before a second frame is read.
	over := dist.Frame{Kind: dist.KindResult, Chunks: dist.MaxChunksPerMessage,
		Payload: make([]byte, ctlBudget/dist.MaxChunksPerMessage+1)}
	if _, err := readRaw(t, over); !errors.Is(err, dist.ErrChunkBudget) {
		t.Fatalf("message over ctlBudget: %v, want ErrChunkBudget", err)
	}
}

// FuzzCtlConnRead reads arbitrary bytes off a control connection: it
// never panics, and every message it returns is one whole frame within
// ctlBudget. Then the bytes, as control messages that send splits at a
// fuzzed chunk size and mixed with rows chunks, come back byte-exact
// and in order.
func FuzzCtlConnRead(f *testing.F) {
	msg := dist.Frame{Kind: dist.KindJob, Seq: ctrlSeqJob(0), Payload: []byte("a job spec of some length")}
	var stream []byte
	for _, fr := range append(dist.SplitFrame(msg, 8), dist.Frame{Kind: dist.KindRows, Chunks: 2, Payload: []byte{9}}) {
		stream = dist.AppendFrame(stream, fr)
	}
	f.Add(stream, uint16(8))
	f.Add([]byte{}, uint16(0))
	f.Add(bytes.Repeat([]byte{0x5a}, 300), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, maxChunk uint16) {
		c := &ctlConn{br: bufio.NewReader(bytes.NewReader(data))}
		for {
			got, err := c.read()
			if err != nil {
				break
			}
			if got.Kind != dist.KindRows && (got.Chunk != 0 || got.Chunks != 1 || len(got.Payload) > ctlBudget) {
				t.Fatalf("kind %d message returned as chunk %d of %d with %d bytes", got.Kind, got.Chunk, got.Chunks, len(got.Payload))
			}
		}

		half := len(data) / 2
		script := []dist.Frame{
			{Kind: dist.KindRows, Seq: ctrlSeqJob(0), Chunks: 1, Payload: data[:half]},
			{Kind: dist.KindJob, Seq: ctrlSeqJob(0), Payload: data},
			{Kind: dist.KindRows, Seq: ctrlSeqJob(0), Chunks: 1, Payload: data[half:]},
			{Kind: dist.KindResult, From: 3, Seq: ctrlSeqJob(0), Payload: data[half:]},
		}
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		go func() {
			// At most about 32 chunks a message, so one run stays cheap.
			w := newCtlConn(a, max(int(maxChunk), len(data)/32))
			for _, fr := range script {
				if w.send(fr) != nil {
					return
				}
			}
		}()
		b.SetReadDeadline(time.Now().Add(10 * time.Second))
		r := newCtlConn(b, 0)
		for i, want := range script {
			got, err := r.read()
			if err != nil {
				t.Fatalf("message %d: %v", i, err)
			}
			if got.Kind != want.Kind || got.From != want.From || got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("message %d: kind %d from %d seq %d with %d bytes, want kind %d from %d seq %d with %d bytes",
					i, got.Kind, got.From, got.Seq, len(got.Payload), want.Kind, want.From, want.Seq, len(want.Payload))
			}
		}
	})
}

// appendRecord frames one chunk for FuzzRowStream's script: 4B chunk
// index, 4B chunk count, 4B payload length, payload.
func appendRecord(b []byte, f dist.Frame) []byte {
	b = appendU32(b, f.Chunk)
	b = appendU32(b, f.Chunks)
	b = appendU32(b, uint32(len(f.Payload)))
	return append(b, f.Payload...)
}

// FuzzRowStream feeds the worker-side sink an arbitrary KindJob payload
// and an arbitrary chunk script. Whatever arrives: the shape is refused
// with an error or the input arrays stay inside the budget; every chunk
// is absorbed, ignored as another stream's, or refused with ErrBadFrame;
// and a sink that reports completion holds, bit for bit, the elements
// the accepted chunks carried. Nothing panics.
func FuzzRowStream(f *testing.F) {
	const budget = 1 << 16
	for _, maxBytes := range []int{8, 24, 1 << 10} {
		keys, cols := dealtRows(257, 3)
		for _, job := range []Job{
			{Specs: twoColSpecs(), Source: RowShards(keys, cols)},
			{Source: ValueShards([][]float64{cols[0][0], {}, cols[2][1]})},
		} {
			rs, err := newRunState(evRun{job: job}, 2, 2)
			if err != nil {
				f.Fatal(err)
			}
			spec, err := rs.payloadFor(1, 3)
			if err != nil {
				f.Fatal(err)
			}
			var script []byte
			for _, fr := range frames(rs.rowStream(1, 3), maxBytes) {
				script = appendRecord(script, fr)
			}
			f.Add(spec, script)
		}
	}
	f.Fuzz(func(t *testing.T, spec, script []byte) {
		js, err := decodeJobSpec(spec)
		if err != nil {
			return
		}
		sink, err := newRowSink(js, budget, nil)
		if err != nil {
			if !errors.Is(err, dist.ErrChunkBudget) {
				t.Fatalf("shape refused with %v, want ErrChunkBudget", err)
			}
			return
		}
		if held := 4*len(sink.keys) + 8*js.ncols*js.rows; held > budget || len(sink.cols) != js.ncols {
			t.Fatalf("sink holds %d bytes in %d columns against a %d-byte budget", held, len(sink.cols), budget)
		}
		var carried [][]byte // per segment, the element bytes of the absorbed chunks
		for len(script) >= 12 {
			fr := dist.Frame{Kind: dist.KindRows, Chunk: binary.LittleEndian.Uint32(script), Chunks: binary.LittleEndian.Uint32(script[4:])}
			n := int(binary.LittleEndian.Uint32(script[8:]))
			script = script[12:]
			if n < 0 || n > len(script) {
				return
			}
			fr.Payload, script = script[:n], script[n:]
			seg, off := sink.seg, sink.off
			if err := sink.accept(fr); err != nil {
				if !errors.Is(err, dist.ErrBadFrame) {
					t.Fatalf("chunk refused with %v, want ErrBadFrame", err)
				}
				return
			}
			if sink.seg != seg || sink.off != off { // absorbed, not ignored
				for len(carried) <= seg {
					carried = append(carried, nil)
				}
				carried[seg] = append(carried[seg], fr.Payload[rowChunkHdr:]...)
			}
		}
		if !sink.complete() {
			return
		}
		for seg, data := range carried {
			var held []byte
			if seg == 0 {
				for _, k := range sink.keys {
					held = appendU32(held, k)
				}
			} else {
				for _, v := range sink.cols[seg-1] {
					held = appendU64(held, math.Float64bits(v))
				}
			}
			if !bytes.Equal(held, data) {
				t.Fatalf("segment %d holds bytes other than the chunks carried", seg)
			}
		}
	})
}

// inProcessCluster forms an n-node cluster whose workers are goroutines
// of this process running the reproworker entry point.
func inProcessCluster(tb testing.TB, n int, cfg dist.Config) *Cluster {
	tb.Helper()
	c, err := NewCluster(ClusterSpec{Nodes: n, Join: n, JoinTimeout: 30 * time.Second, Config: cfg, Options: quietOpts()})
	if err != nil {
		tb.Fatalf("NewCluster: %v", err)
	}
	exits := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() { exits <- WorkerMain([]string{"-join", c.Addr()}) }()
	}
	tb.Cleanup(func() {
		if err := c.Close(); err != nil {
			tb.Errorf("Close: %v", err)
		}
		for i := 0; i < n; i++ {
			select {
			case <-exits:
			case <-time.After(10 * time.Second):
				tb.Error("in-process worker did not return after cluster close")
			}
		}
	})
	return c
}

// colsJob is one SUM per column over rows × ncols values in groups
// groups, as a job over two shards, plus the bytes its dispatch puts on
// the wire.
func colsJob(tb testing.TB, rows, ncols int, groups uint32) (job Job, dispatched int) {
	tb.Helper()
	keys := workload.Keys(11, rows, groups)
	half := rows / 2
	var specs []sqlagg.AggSpec
	var lo, hi [][]float64
	for c := 0; c < ncols; c++ {
		specs = append(specs, sqlagg.AggSpec{Kind: sqlagg.AggSum, Levels: core.DefaultLevels, Col: c})
		col := workload.Values64(uint64(20+c), rows, workload.MixedMag)
		lo, hi = append(lo, col[:half]), append(hi, col[half:])
	}
	job = Job{Workers: 1, Specs: specs, Source: RowShards([][]uint32{keys[:half], keys[half:]}, [][][]float64{lo, hi})}
	for id := 0; id < 2; id++ {
		b, err := EncodeJobPayload(job, 2, id)
		if err != nil {
			tb.Fatal(err)
		}
		dispatched += len(b)
	}
	return job, dispatched
}

// allocPerRun is the bytes this process allocates per c.Run(job), after
// one warm-up run.
func allocPerRun(t *testing.T, c *Cluster, job Job) uint64 {
	t.Helper()
	const runs = 3
	var before, after runtime.MemStats
	for i := 0; i <= runs; i++ {
		if i == 1 {
			runtime.ReadMemStats(&before)
		}
		if _, err := c.Run(job); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestDispatchCopyCount pins how often a dispatched row is copied. With
// supervisor and both workers in this process, one Run of a 2^18-row ×
// 5-column RowShards job allocates at most 3 × the bytes it dispatches
// (the workers' input arrays are 1 ×; the whole-payload path was
// ≈ 15.6 ×). And with the workers in processes of their own, what is
// left — the supervisor's share — is a few chunk buffers, the same at
// 2^16 rows as at 2^18.
func TestDispatchCopyCount(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	// 64 groups: the aggregation is negligible next to the dispatch.
	big, bigBytes := colsJob(t, 1<<18, 5, 64)
	small, _ := colsJob(t, 1<<16, 5, 64)

	if got := allocPerRun(t, inProcessCluster(t, 2, dist.Config{}), big); got > 3*uint64(bigBytes) {
		t.Errorf("in-process cluster: %d bytes allocated per Run for %d dispatched (%.1f×), want <= 3×",
			got, bigBytes, float64(got)/float64(bigBytes))
	}

	c, err := NewCluster(ClusterSpec{Nodes: 2, JoinTimeout: 30 * time.Second, Options: quietOpts()})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	const chunkBufs = 8 * (rowChunkHdr + rowChunkBytes)
	atSmall, atBig := allocPerRun(t, c, small), allocPerRun(t, c, big)
	if atSmall > chunkBufs || atBig > chunkBufs {
		t.Errorf("supervisor allocates %d bytes per Run at 2^16 rows and %d at 2^18 (%d dispatched), want O(chunk): <= %d at both",
			atSmall, atBig, bigBytes, chunkBufs)
	}
}

// handLoop is a supervisor loop over a cluster with no listener and no
// workers: enough to ship rows over a hand-made connection and to see
// what the loop makes of the shipper's report.
func handLoop(n int) *clusterLoop {
	c := &Cluster{
		spec:   ClusterSpec{Nodes: n, JoinTimeout: time.Second},
		events: make(chan event, 16),
		done:   make(chan struct{}),
		elog:   obs.NewEventLog(16),
		reg:    obs.NewRegistry(),
	}
	c.met = newClusterMetrics(c.reg)
	return &clusterLoop{c: c, members: make([]*connState, n), incs: make([]int, n),
		prevWire: make(map[uint64]dist.WireStats)}
}

// TestRowShipWriteDeadline: the control connection's write deadline is
// re-armed for every frame. A worker that drains a dispatch steadily
// but takes, over the whole stream, several times the write timeout
// receives every row; a worker that stops reading is a lost member
// within about one timeout of its last read.
func TestRowShipWriteDeadline(t *testing.T) {
	const window = 200 * time.Millisecond
	const chunks = 8
	vals := workload.Values64(9, chunks*rowChunkBytes/8, workload.Uniform12)
	job := Job{Source: ValueShards([][]float64{{1}, vals})}

	// ship starts node 1's rows stream over an in-memory connection and
	// hands the test the worker's end.
	ship := func(t *testing.T) (*clusterLoop, *connState, *bufio.Reader) {
		l := handLoop(2)
		sup, wrk := net.Pipe()
		t.Cleanup(func() { sup.Close(); wrk.Close() })
		cs := &connState{ctlConn: newCtlConn(sup, 0), phase: phaseMember, id: 1}
		cs.writeTimeout = window
		l.members[1] = cs
		rs, err := newRunState(evRun{job: job, reply: make(chan runReply, 1)}, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		rs.shipping = 1
		go l.c.shipRows(rs, cs, rs.rowStream(1, 0))
		return l, cs, bufio.NewReader(wrk)
	}
	report := func(t *testing.T, l *clusterLoop) evShip {
		select {
		case e := <-l.c.events:
			return e.(evShip)
		case <-time.After(20 * window):
			t.Fatal("the shipper never reported back")
			return evShip{}
		}
	}

	t.Run("steady trickle survives", func(t *testing.T) {
		l, cs, br := ship(t)
		start := time.Now()
		for i := 0; i < chunks; i++ {
			if _, err := dist.ReadFrame(br); err != nil {
				t.Fatalf("chunk %d: %v", i, err)
			}
			time.Sleep(window / 2)
		}
		e := report(t, l)
		if e.err != nil {
			t.Fatalf("a worker that took %v to drain %d chunks was cut off after a %v write timeout: %v",
				time.Since(start).Round(time.Millisecond), chunks, window, e.err)
		}
		l.handleShip(e)
		if l.members[1] != cs {
			t.Error("the member was dropped after a complete stream")
		}
	})

	t.Run("stall is a lost member inside the window", func(t *testing.T) {
		l, _, br := ship(t)
		for i := 0; i < 2; i++ {
			if _, err := dist.ReadFrame(br); err != nil {
				t.Fatalf("chunk %d: %v", i, err)
			}
		}
		stalled := time.Now()
		e := report(t, l)
		if e.err == nil {
			t.Fatal("the stream to a worker that stopped reading completed")
		}
		if waited := time.Since(stalled); waited > 5*window {
			t.Errorf("the stall was noticed after %v, want about the %v write timeout", waited, window)
		}
		l.handleShip(e)
		if l.members[1] != nil {
			t.Error("the stalled member is still a member after its shipper reported a write error")
		}
	})
}

// TestRowStreamHangupReplacement: a member that hangs up after two row
// chunks is replaced by a parked joiner, the substitute is streamed the
// dead member's rows from the start at a bumped incarnation, and the
// result is byte for byte the in-process reference.
func TestRowStreamHangupReplacement(t *testing.T) {
	const rows = 400_000 // several chunks of keys and of values per node
	keys, cols := workload.Keys(29, rows, 512), [][]float64{workload.Values64(31, rows, workload.MixedMag)}
	ref, err := dist.AggregateTuplesConfig([][]uint32{keys}, [][][]float64{cols}, 2, sumSpecs(), dist.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := dist.EncodeTupleGroups(ref, 1)

	c, err := NewCluster(ClusterSpec{Nodes: 2, Join: 2, MaxStandby: 1,
		JoinTimeout: 30 * time.Second, Options: quietOpts()})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()

	// The fake takes a slot through the real handshake, then reads its
	// job spec and two row chunks and hangs up.
	fake := dialRaw(t, c.Addr())
	fake.send(dist.Frame{Kind: dist.KindHello, From: -1, Seq: ctrlSeqCluster, Payload: encodeHello(joinHello())})
	if conf := fake.read(); conf.Kind != dist.KindConf {
		t.Fatalf("got kind %d, want KindConf", conf.Kind)
	}
	hungUp := make(chan error, 1)
	go func() {
		fake.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		for _, kind := range []byte{dist.KindJob, dist.KindRows, dist.KindRows} {
			f, err := dist.ReadFrame(fake.br)
			if err == nil && f.Kind != kind {
				err = fmt.Errorf("fake worker read kind %d, want %d", f.Kind, kind)
			}
			if err != nil {
				hungUp <- err
				return
			}
		}
		hungUp <- fake.conn.Close()
	}()

	joinErrs := make(chan error, 2)
	for i := 0; i < 2; i++ { // one takes the other slot, one parks
		go func() { joinErrs <- runJoiner(c.Addr(), "", 30*time.Second) }()
	}
	waitJoined(t, c, 2)
	for deadline := time.Now().Add(20 * time.Second); c.Stats().Standbys < 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the second joiner never parked (stats %+v)", c.Stats())
		}
	}

	half := rows / 2
	res, err := c.Run(Job{Workers: 2, Specs: sumSpecs(), Source: RowShards(
		[][]uint32{keys[:half], keys[half:]}, [][][]float64{{cols[0][:half]}, {cols[0][half:]}})})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := <-hungUp; err != nil {
		t.Fatalf("fake worker: %v", err)
	}
	if res.Replacements < 1 {
		t.Errorf("Replacements = %d, want >= 1", res.Replacements)
	}
	if !bytes.Equal(res.Payload, want) {
		t.Error("result differs from the in-process reference: the substitute did not get the full stream")
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-joinErrs:
			if err != nil {
				t.Errorf("joiner exited with: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("a joiner did not exit after cluster close")
		}
	}
}
