package dist

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/hashagg"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sqlagg"
)

// sumSpecs is the spec list of the classic GROUP BY SUM: one
// reproducible SUM over column 0, at the distributed plane's level
// count. Its wire tuples are byte-identical to the pre-spec frames.
func sumSpecs() []sqlagg.AggSpec {
	return []sqlagg.AggSpec{{Kind: sqlagg.AggSum, Levels: levels, Col: 0}}
}

// shuffleFanout is the radix fan-out of the hash shuffle. Keys are
// routed by partition.Do on their low byte; partition p is owned by
// node p mod n, so every key has exactly one owner for a given cluster
// size and GROUP BY needs no cross-node post-merge per key.
const shuffleFanout = 256

var errFrame = errors.New("dist: corrupt shuffle frame")

// Stream ids (Frame.Seq) of the GROUP BY protocol. Every node sends
// exactly one logical message per (destination, stream) — as one or
// more chunk frames — so receivers reassemble and deduplicate per
// (from, seq) stream and count distinct senders per stream.
const (
	seqShuffle = 0 // sender → owner: per-key partial states
	seqGather  = 1 // owner → root: finalized groups
)

// TupleGroup is one output row of a multi-aggregate GROUP BY: the group
// key plus one finalized value per aggregate spec, in spec order.
type TupleGroup struct {
	Key  uint32
	Aggs []float64
}

// aggTuple is the per-key payload of the aggregation tables: one
// aggregate state per spec, in spec order. It is Resettable so reused
// hashagg tables recycle the states in place.
type aggTuple struct {
	states []sqlagg.AggState
}

// Reset empties every state, keeping its configuration.
func (t *aggTuple) Reset() {
	for _, st := range t.states {
		st.Reset()
	}
}

// tuplePlan is the precomputed per-spec layout shared by the combine
// and merge sides of one GROUP BY: the column each spec reads, the
// fixed encoded size of each state, and their total (the wire tuple
// width). Specs must be validated before building a plan.
type tuplePlan struct {
	specs []sqlagg.AggSpec
	sizes []int
	width int
}

// planShard builds the plan for specs after checking that the shard's
// columns fit it.
func planShard(keys []uint32, cols [][]float64, specs []sqlagg.AggSpec) (*tuplePlan, error) {
	if err := ValidateShardColumns([][]uint32{keys}, [][][]float64{cols}, specs); err != nil {
		return nil, err
	}
	return newTuplePlan(specs)
}

func newTuplePlan(specs []sqlagg.AggSpec) (*tuplePlan, error) {
	states, err := sqlagg.NewStates(specs)
	if err != nil {
		return nil, err
	}
	p := &tuplePlan{specs: specs, sizes: make([]int, len(states))}
	for i, st := range states {
		p.sizes[i] = st.EncodedSize()
		p.width += p.sizes[i]
	}
	return p, nil
}

// newTuple instantiates an empty tuple for the plan; specs were
// validated when the plan was built, so construction cannot fail.
func (p *tuplePlan) newTuple() aggTuple {
	states := make([]sqlagg.AggState, len(p.specs))
	for i, sp := range p.specs {
		states[i], _ = sp.New()
	}
	return aggTuple{states: states}
}

// maxCol returns the highest column index any spec reads.
func (p *tuplePlan) maxCol() int {
	m := 0
	for _, sp := range p.specs {
		if sp.Col > m {
			m = sp.Col
		}
	}
	return m
}

// appendTuple appends one ⟨key, state tuple⟩ pair to a shuffle frame:
// 4-byte little-endian key, 4-byte length, then the spec-ordered
// canonical state encodings back to back. The states encode in place
// (AppendBinary) and the length is patched in afterwards, so the
// shuffle's per-key encode loop performs no allocation once the frame
// has capacity.
func appendTuple(frame []byte, key uint32, tup *aggTuple) ([]byte, error) {
	start := len(frame)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], key)
	frame = append(frame, hdr[:]...)
	var err error
	for _, st := range tup.states {
		if frame, err = st.AppendBinary(frame); err != nil {
			return frame, err
		}
	}
	binary.LittleEndian.PutUint32(frame[start+4:], uint32(len(frame)-start-8))
	return frame, nil
}

// mergeTuple folds one encoded spec-ordered tuple into the owner's
// states, walking the concatenation by the plan's fixed state sizes.
func (p *tuplePlan) mergeTuple(tup *aggTuple, enc []byte) error {
	if len(enc) != p.width {
		return fmt.Errorf("%w: tuple is %d bytes, plan width %d", errFrame, len(enc), p.width)
	}
	off := 0
	for i, sz := range p.sizes {
		if err := tup.states[i].MergeBinary(enc[off : off+sz]); err != nil {
			return err
		}
		off += sz
	}
	return nil
}

// walkFrame decodes a shuffle frame, invoking fn for every pair.
func walkFrame(frame []byte, fn func(key uint32, state []byte) error) error {
	for len(frame) > 0 {
		if len(frame) < 8 {
			return errFrame
		}
		key := binary.LittleEndian.Uint32(frame[0:])
		sz := int(binary.LittleEndian.Uint32(frame[4:]))
		frame = frame[8:]
		if sz < 0 || sz > len(frame) { // sz < 0: uint32 overflowed 32-bit int
			return errFrame
		}
		if err := fn(key, frame[:sz]); err != nil {
			return err
		}
		frame = frame[sz:]
	}
	return nil
}

// AggregateByKey computes a reproducible distributed GROUP BY SUM.
// Node i holds the rows ⟨localKeys[i][j], localVals[i][j]⟩. It is
// AggregateTuples with the single-SUM spec list; see there for the
// protocol.
func AggregateByKey(localKeys [][]uint32, localVals [][]float64, workers int) ([]Group, error) {
	return AggregateByKeyConfig(localKeys, localVals, workers, Config{})
}

// AggregateByKeyConfig is AggregateByKey over an explicitly configured
// interconnect (see Config); the group list carries the same bits for
// every transport and fault plan.
func AggregateByKeyConfig(localKeys [][]uint32, localVals [][]float64, workers int, cfg Config) ([]Group, error) {
	if len(localVals) != len(localKeys) {
		return nil, fmt.Errorf("%w: %d key shards vs %d value shards",
			ErrShardMismatch, len(localKeys), len(localVals))
	}
	cols := make([][][]float64, len(localVals))
	for i, vals := range localVals {
		cols[i] = [][]float64{vals}
	}
	tuples, err := AggregateTuplesConfig(localKeys, cols, workers, sumSpecs(), cfg)
	if err != nil {
		return nil, err
	}
	groups := make([]Group, len(tuples))
	for i, t := range tuples {
		groups[i] = Group{Key: t.Key, Sum: t.Aggs[0]}
	}
	return groups, nil
}

// AggregateTuples computes a reproducible distributed multi-aggregate
// GROUP BY. Node i holds the rows of shard i: localKeys[i] are the
// group keys and localCols[i] the value columns; each spec names one
// aggregate over one column, and each output row carries the finalized
// values in spec order. The result is bit-identical for every
// distribution of the same multiset of rows across any number of
// nodes, every worker count, and every message arrival order.
func AggregateTuples(localKeys [][]uint32, localCols [][][]float64, workers int, specs []sqlagg.AggSpec) ([]TupleGroup, error) {
	return AggregateTuplesConfig(localKeys, localCols, workers, specs, Config{})
}

// AggregateTuplesConfig is AggregateTuples over an explicitly
// configured interconnect (see Config).
func AggregateTuplesConfig(localKeys [][]uint32, localCols [][][]float64, workers int, specs []sqlagg.AggSpec, cfg Config) ([]TupleGroup, error) {
	n := len(localKeys)
	if n == 0 {
		return nil, ErrNoShards
	}
	if len(localCols) != n {
		return nil, fmt.Errorf("%w: %d key shards vs %d column shards",
			ErrShardMismatch, n, len(localCols))
	}
	if err := ValidateShardColumns(localKeys, localCols, specs); err != nil {
		return nil, err
	}
	if workers < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrWorkers, workers)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr, err := cfg.transport(n)
	if err != nil {
		return nil, err
	}
	defer tr.Close()

	rootCh := make(chan tupleResult, 1)
	for id := 0; id < n; id++ {
		go func(id int) {
			groups, err := RunGroupByNode(id, localKeys[id], localCols[id], workers, specs, tr, cfg)
			if id == 0 {
				rootCh <- tupleResult{groups: groups, err: err}
			}
		}(id)
	}
	m := <-rootCh
	if m.err != nil {
		return nil, m.err
	}
	return m.groups, nil
}

type tupleResult struct {
	groups []TupleGroup
	err    error
}

// ValidateShardColumns checks the shard shape of a multi-aggregate
// GROUP BY input: specs must be valid, every column of a shard must be
// as long as its key slice, and every shard with rows must carry every
// column any spec reads. Shards without rows may omit their columns.
func ValidateShardColumns(localKeys [][]uint32, localCols [][][]float64, specs []sqlagg.AggSpec) error {
	if len(specs) == 0 {
		return fmt.Errorf("%w: empty spec list", sqlagg.ErrBadSpec)
	}
	maxCol := 0
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return err
		}
		if sp.Col > maxCol {
			maxCol = sp.Col
		}
	}
	for i := range localKeys {
		if len(localKeys[i]) == 0 && len(localCols[i]) == 0 {
			continue
		}
		if len(localCols[i]) <= maxCol {
			return fmt.Errorf("%w: shard %d has %d columns but a spec reads column %d",
				ErrShardMismatch, i, len(localCols[i]), maxCol)
		}
		for c, col := range localCols[i] {
			if len(col) != len(localKeys[i]) {
				return fmt.Errorf("%w: shard %d column %d has %d values for %d keys",
					ErrShardMismatch, i, c, len(col), len(localKeys[i]))
			}
		}
	}
	return nil
}

// RunGroupByNode executes node id's role of the distributed GROUP BY
// over an externally owned transport: combine the local shard into
// per-key tuples of aggregate states (one state per spec), ship one
// shuffle message to every owner (chunked when large), merge the
// messages addressed to this node (exactly one per sender, reassembled
// and deduplicated), finalize, and ship the finalized groups to the
// root. The root (node 0) additionally collects every owner's gather
// message and merges the per-owner sorted runs into the global result —
// which it can do as soon as all gathers are in, because a gather
// proves its owner needed no more resends. Every other node keeps
// serving chunk re-requests and returns only after the transport is
// closed underneath it, with the error its role ended in (already
// announced on the wire) — nil for a clean run. Exported for
// multi-process runtimes (internal/dist/proc); AggregateTuplesConfig
// runs the same function on one goroutine per node.
//
// Like the reduction tree, the shuffle runs on the shared collector and
// so has its straggler handling: a receiver that makes no progress for ChildDeadline re-requests what is
// missing — whole streams it has heard nothing of, individual chunks of
// partially received ones — every node caches its outgoing chunk lists
// and retransmits on demand, and a permanently silent peer surfaces
// ErrStraggler instead of a hang.
func RunGroupByNode(id int, keys []uint32, cols [][]float64, workers int, specs []sqlagg.AggSpec, tr Transport, cfg Config) ([]TupleGroup, error) {
	n := tr.Nodes()
	plan, cerr := planShard(keys, cols, specs)
	var frames [][]byte
	if cerr == nil {
		frames, cerr = combineShard(keys, cols, plan, n, workers, cfg.maxMessage())
	}

	// Shuffle: one message (possibly empty, so owners can count
	// senders) to every owner — the combiner's frame, or its failure on
	// the same stream.
	col := newCollector(id, tr, cfg)
	cfg.gate.wait(id)
	for d := 0; d < n; d++ {
		f := Frame{Kind: KindGroups, From: id, To: d, Seq: seqShuffle}
		if cerr != nil {
			f.Kind, f.Payload = KindError, EncodeErr(cerr)
		} else {
			f.Payload = frames[d]
		}
		col.send(f)
	}
	cfg.gate.done()

	// Owner role: merge incoming per-key tuples in arrival order. The
	// root interleaves this with collecting every other owner's gather
	// message, which may overtake shuffle messages on a reordering
	// transport. A node that cannot even plan its tuples skips the
	// collection (its failure is already cached on every stream).
	for s := 0; s < n; s++ {
		col.expect(s, seqShuffle)
	}
	for s := 1; s < n && id == 0; s++ {
		col.expect(s, seqGather)
	}
	gathers := make([][]byte, 0, n)
	// Root-side hop digests for Config.Trace: per-sender payload
	// digests folded order-invariantly (XOR), so a reordering
	// transport reports the same digest for the same bytes.
	var shuffleDigest, gatherDigest uint64
	traceHops := cfg.Trace != nil && id == 0
	var states *hashagg.Table[aggTuple]
	ownErr := cerr
	if ownErr == nil {
		states = hashagg.New(64, hashagg.Identity, plan.newTuple)
		ownErr = col.collect(func(msg Frame) error {
			switch {
			case msg.Seq == seqShuffle && msg.Kind == KindGroups:
				if traceHops {
					shuffleDigest ^= obs.FNV64a(msg.Payload)
				}
				return walkFrame(msg.Payload, func(key uint32, enc []byte) error {
					if e := plan.mergeTuple(states.Upsert(key), enc); e != nil {
						return fmt.Errorf("dist: node %d merging group %d from node %d: %w", id, key, msg.From, e)
					}
					return nil
				})
			case msg.Seq == seqGather && msg.Kind == KindGather:
				if traceHops {
					gatherDigest ^= obs.FNV64a(msg.Payload)
				}
				gathers = append(gathers, msg.Payload)
				return nil
			}
			return fmt.Errorf("%w: node %d got kind %d on stream %d from node %d", ErrBadFrame, id, msg.Kind, msg.Seq, msg.From)
		})
	}

	// Finalize this owner's groups (disjoint from every other owner's)
	// into a key-sorted run.
	var local []TupleGroup
	if ownErr == nil {
		local = finalizeTuples(states, len(specs))
	}

	if id != 0 {
		out := Frame{Kind: KindGather, From: id, To: 0, Seq: seqGather}
		if size := len(local) * gatherRecordSize(len(specs)); ownErr == nil && size > cfg.maxMessage() {
			ownErr = fmt.Errorf("%w: gather message from node %d would be %d bytes (max message %d)",
				ErrChunkBudget, id, size, cfg.maxMessage())
		}
		if ownErr != nil {
			out.Kind, out.Payload = KindError, EncodeErr(ownErr)
		} else {
			out.Payload = EncodeTupleGroups(local, len(specs))
		}
		col.send(out)
		col.serve()
		return nil, ownErr
	}

	// Root gather: owners hold disjoint key sets and each gather
	// payload arrives as a key-sorted run, so the global result is a
	// k-way merge of the runs — no global sort.
	if ownErr != nil {
		return nil, ownErr
	}
	if traceHops {
		cfg.Trace("shuffle", shuffleDigest)
		cfg.Trace("gather", gatherDigest)
	}
	runs := make([][]TupleGroup, 0, len(gathers)+1)
	runs = append(runs, local)
	for _, payload := range gathers {
		run, derr := DecodeTupleGroups(payload, len(specs))
		if derr != nil {
			return nil, fmt.Errorf("dist: root decoding gather: %w", derr)
		}
		runs = append(runs, run)
	}
	return mergeSortedRuns(runs), nil
}

// GroupTuples is the local form of the owner-side aggregation: it folds
// rows ⟨keys[i], cols[·][i]⟩ into one tuple of aggregate states per
// distinct key — the same table, plan and finalization the distributed
// operator's owners use — and returns the finalized groups key-sorted.
// hint sizes the table; a bound that never undercounts the distinct
// keys (partition.Output.DistinctBound) means it never rehashes.
// stride is the gap between distinct keys DistinctBound also takes
// (the fan-out for one partition of a low-byte radix pass, else 1):
// such keys agree on their low log2(stride) bits and the table indexes
// above them.
func GroupTuples(keys []uint32, cols [][]float64, specs []sqlagg.AggSpec, hint int, stride uint32) ([]TupleGroup, error) {
	plan, err := planShard(keys, cols, specs)
	if err != nil {
		return nil, err
	}
	table := hashagg.NewPartitioned(hint, hashagg.Identity, plan.newTuple, uint(bits.TrailingZeros32(max(stride, 1))))
	for i, k := range keys {
		tup := table.Upsert(k)
		for si, st := range tup.states {
			st.Add(cols[specs[si].Col][i])
		}
	}
	return finalizeTuples(table, len(specs)), nil
}

// finalizeTuples drains an owner table into a key-sorted group run.
func finalizeTuples(states *hashagg.Table[aggTuple], nspecs int) []TupleGroup {
	local := make([]TupleGroup, 0, states.Len())
	vals := make([]float64, 0, states.Len()*nspecs)
	states.ForEach(func(key uint32, tup *aggTuple) {
		for _, st := range tup.states {
			vals = append(vals, st.Value())
		}
		local = append(local, TupleGroup{Key: key, Aggs: vals[len(vals)-nspecs:]})
	})
	slices.SortFunc(local, func(a, b TupleGroup) int { return cmp.Compare(a.Key, b.Key) })
	return local
}

// mergeSortedRuns merges key-sorted runs over pairwise disjoint key
// sets into one key-sorted result. Runs are small in number (one per
// node), so a linear scan per output group beats heap bookkeeping.
func mergeSortedRuns(runs [][]TupleGroup) []TupleGroup {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]TupleGroup, 0, total)
	heads := make([]int, len(runs))
	for len(out) < total {
		best := -1
		var bestKey uint32
		for r := range runs {
			if heads[r] < len(runs[r]) {
				if k := runs[r][heads[r]].Key; best < 0 || k < bestKey {
					best, bestKey = r, k
				}
			}
		}
		out = append(out, runs[best][heads[best]])
		heads[best]++
	}
	return out
}

// combineShard partitions one node's rows by key and pre-aggregates
// each partition into per-key tuples of partial states, returning one
// encoded logical shuffle payload per destination node. maxMessage is
// the configuration's Config.maxMessage bound.
func combineShard(keys []uint32, cols [][]float64, plan *tuplePlan, n, workers, maxMessage int) ([][]byte, error) {
	// Single-column plans partition the values themselves, so the
	// pre-aggregation pass reads them sequentially; multi-column plans
	// partition row indices and gather from the columns per spec.
	var out partition.Output[float64]
	var idx partition.Output[int32]
	single := len(cols) == 1
	if single {
		out = partition.Do(keys, cols[0], 0, shuffleFanout, workers)
	} else {
		rows := make([]int32, len(keys))
		for i := range rows {
			rows[i] = int32(i)
		}
		idx = partition.Do(keys, rows, 0, shuffleFanout, workers)
	}
	numPartitions := func() int {
		if single {
			return out.NumPartitions()
		}
		return idx.NumPartitions()
	}()
	distinctBound := func(p int) int {
		if single {
			return out.DistinctBound(p, shuffleFanout)
		}
		return idx.DistinctBound(p, shuffleFanout)
	}

	frames := make([][]byte, n)

	// Size the aggregation table once, for the largest distinct-key
	// bound across partitions: DistinctBound never undercounts, so a
	// table hinted at the maximum never rehashes mid-partition (the old
	// fixed len/8 heuristic caused rehash storms on skewed keys where
	// most rows carried distinct keys). The same pass sums the bounds
	// per destination, sizing each frame buffer in one allocation.
	hint := 0
	est := make([]int, n)
	for p := 0; p < numPartitions; p++ {
		b := distinctBound(p)
		if b > hint {
			hint = b
		}
		est[p%n] += b
	}
	if hint == 0 {
		return frames, nil // no rows: every shuffle message is empty
	}

	// One table, reused across partitions: Clear keeps the slot arrays
	// allocated and Reset recycles the tuple states in place, so
	// per-partition pre-aggregation costs no allocation after the first
	// partition. Its keys agree on the byte partition.Do routed on, so
	// the table indexes by the bits above it.
	table := hashagg.NewPartitioned(hint, hashagg.Identity, plan.newTuple, uint(bits.TrailingZeros(shuffleFanout)))
	pairSize := 8 + plan.width // key + length prefix + tuple of states
	for d := range frames {
		if est[d] > 0 {
			frames[d] = make([]byte, 0, est[d]*pairSize)
		}
	}
	for p := 0; p < numPartitions; p++ {
		d := p % n
		// Pre-aggregate the partition: one tuple of partial states per
		// distinct key. Slot order fixes the frame layout, but the
		// owner's per-key merges commute, so layout is immaterial to
		// the final bits.
		if single {
			pk, pv := out.Partition(p)
			if len(pk) == 0 {
				continue
			}
			table.Clear()
			for i, k := range pk {
				tup := table.Upsert(k)
				for _, st := range tup.states {
					st.Add(pv[i])
				}
			}
		} else {
			pk, pi := idx.Partition(p)
			if len(pk) == 0 {
				continue
			}
			table.Clear()
			for i, k := range pk {
				tup := table.Upsert(k)
				row := pi[i]
				for si, st := range tup.states {
					st.Add(cols[plan.specs[si].Col][row])
				}
			}
		}
		// Per-key tuples encode directly into the destination frame
		// buffer. Its capacity was pre-sized from the summed
		// distinct-key bounds, which never undercount, so the encode
		// loop is allocation-free; if the bound were ever wrong, append
		// inside appendTuple grows geometrically as usual.
		var encErr error
		table.ForEach(func(key uint32, tup *aggTuple) {
			if encErr != nil {
				return
			}
			frames[d], encErr = appendTuple(frames[d], key, tup)
		})
		if encErr != nil {
			return nil, encErr
		}
	}
	// Chunking lifted the old 16 MiB per-(sender, owner) frame ceiling —
	// a logical shuffle payload now travels as however many wire chunks
	// it needs. The remaining bound is the configuration's maxMessage
	// (reassembly budget, capped by chunk payload × chunk-count limit):
	// a payload no receiver could ever accept is rejected here,
	// identically on every transport, so cross-transport equivalence
	// stays exact and the failure names the knobs to turn.
	for d, frame := range frames {
		if len(frame) > maxMessage {
			return nil, fmt.Errorf("%w: shuffle payload to node %d is %d bytes (max message %d); raise ReassemblyBudget/MaxChunkPayload or use more nodes",
				ErrChunkBudget, d, len(frame), maxMessage)
		}
	}
	return frames, nil
}

// gatherRecordSize is the fixed byte width of one finalized group in a
// gather message: the key plus one float64 per spec.
func gatherRecordSize(nspecs int) int { return 4 + 8*nspecs }

// EncodeTupleGroups flattens finalized multi-aggregate groups into the
// gather wire layout (4-byte key, then 8-byte float64 bits per spec) —
// also the result payload of a multi-process GROUP BY and the serving
// layer's canonical result encoding.
func EncodeTupleGroups(gs []TupleGroup, nspecs int) []byte {
	rec := gatherRecordSize(nspecs)
	buf := make([]byte, 0, len(gs)*rec)
	var scratch [4]byte
	for _, g := range gs {
		binary.LittleEndian.PutUint32(scratch[:], g.Key)
		buf = append(buf, scratch[:]...)
		for _, v := range g.Aggs {
			var vb [8]byte
			binary.LittleEndian.PutUint64(vb[:], math.Float64bits(v))
			buf = append(buf, vb[:]...)
		}
	}
	return buf
}

// DecodeTupleGroups inverts EncodeTupleGroups. The payload length must
// be an exact multiple of the record size (the payload crosses the
// process boundary in proc clusters). All aggregate values share one
// flat backing array.
func DecodeTupleGroups(buf []byte, nspecs int) ([]TupleGroup, error) {
	rec := gatherRecordSize(nspecs)
	if nspecs < 1 || len(buf)%rec != 0 {
		return nil, fmt.Errorf("%w: gather payload of %d bytes for %d specs", errFrame, len(buf), nspecs)
	}
	count := len(buf) / rec
	gs := make([]TupleGroup, count)
	backing := make([]float64, count*nspecs)
	for i := range gs {
		p := buf[i*rec:]
		gs[i].Key = binary.LittleEndian.Uint32(p)
		aggs := backing[i*nspecs : (i+1)*nspecs : (i+1)*nspecs]
		for s := range aggs {
			aggs[s] = math.Float64frombits(binary.LittleEndian.Uint64(p[4+8*s:]))
		}
		gs[i].Aggs = aggs
	}
	return gs, nil
}
