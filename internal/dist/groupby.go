package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/agg"
	"repro/internal/groupby"
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

// shuffleFanout is the radix fan-out of the hash shuffle: a key's low
// byte b names its owner, node b mod n (owner), so every key has exactly
// one owner for a given cluster size and GROUP BY needs no cross-node
// post-merge per key. The combiner's partitions are key ranges
// (partition.Recursive), not owners: each spreads its keys over every
// owner by their low bytes.
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
type TupleGroup = groupby.Group

// NodeMemory is the memory one node's run — a GROUP BY or a reduction —
// leaves to the next run on the same node: the tuple plan of its spec
// list, the combiner's scatter targets (partition.Arena), the
// combiner's and the owner's tables and the outgoing shuffle and
// gather payloads. A caller that runs one job after another — a
// cluster worker — passes the same NodeMemory to each, and a run
// scatters, aggregates, merges and encodes into what the last one left
// instead of allocating it afresh.
// Each piece grows to the largest run yet, so the memory is that of the
// largest job the node has run, and none is zeroed again: a run writes
// every element it reads. Tables are cleared, not remade, when the plan
// and buffer length match and their capacity covers the run's hint.
//
// Runs must not overlap: the memory belongs to one run until its
// transport is closed and the run has returned, since the collector
// keeps the chunks of what it sent, which alias the payloads, for
// resends until then. A nil NodeMemory is a fresh one, so the run
// allocates everything.
type NodeMemory struct {
	specs          []sqlagg.AggSpec
	plan           *sqlagg.TuplePlan
	arena          partition.Arena[float64]
	combine, owner *groupby.Table
	frames         [][]byte
	gather         []byte
}

// planFor returns the physical tuple plan for specs: the one m holds
// when it was planned for an equal spec list, so that m's tables are
// recycled, else a new one that m then holds.
func (m *NodeMemory) planFor(specs []sqlagg.AggSpec) (*sqlagg.TuplePlan, error) {
	if m.plan == nil || !slices.Equal(m.specs, specs) {
		plan, err := sqlagg.NewTuplePlan(specs)
		if err != nil {
			return nil, err
		}
		m.specs, m.plan = slices.Clone(specs), plan
	}
	return m.plan, nil
}

// emptyFrames returns m's n outgoing shuffle payloads, emptied.
func (m *NodeMemory) emptyFrames(n int) [][]byte {
	for len(m.frames) < n {
		m.frames = append(m.frames, nil)
	}
	frames := m.frames[:n]
	for d := range frames {
		frames[d] = frames[d][:0]
	}
	return frames
}

// appendTuple appends one ⟨key, tuple⟩ record to a shuffle frame:
// 4-byte little-endian key, 4-byte length, then the tuple's canonical
// encoding (sqlagg.TuplePlan.Width bytes: the plan's sums as rsum
// states, the row count if a spec needs it, the extrema). The tuple
// encodes in place and the length is patched in afterwards, so the
// shuffle's per-key encode loop performs no allocation once the frame
// has capacity.
func appendTuple(frame []byte, key uint32, plan *sqlagg.TuplePlan, tup *sqlagg.Tuple) ([]byte, error) {
	start := len(frame)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], key)
	frame = append(frame, hdr[:]...)
	frame, err := plan.AppendBinary(frame, tup)
	if err != nil {
		return frame, err
	}
	binary.LittleEndian.PutUint32(frame[start+4:], uint32(len(frame)-start-8))
	return frame, nil
}

// recordSize is the frame bytes of one ⟨key, tuple⟩ record.
func recordSize(plan *sqlagg.TuplePlan) int { return 8 + plan.Width() }

// ownerMerge is the owner role's table: it folds the shuffle messages
// addressed to this node into one tuple per key. The table is sized
// when the first non-empty message completes — its record count times
// the sender count, which bounds the owner's keys whenever no other
// sender ships more records than that one (shards of one relation are
// alike); a larger sender costs a rehash, never a wrong result.
type ownerMerge struct {
	plan    *sqlagg.TuplePlan
	senders int
	mem     *NodeMemory // the owner table is recycled from mem.owner
	table   *groupby.Table
}

// merge folds one sender's shuffle payload in.
func (o *ownerMerge) merge(payload []byte) error {
	if o.table == nil {
		if len(payload) == 0 {
			return nil
		}
		o.mem.owner = groupby.Recycle(o.mem.owner, o.plan, len(payload)/recordSize(o.plan)*o.senders, 0)
		o.table = o.mem.owner
	}
	return walkFrame(payload, func(key uint32, enc []byte) error {
		if err := o.table.MergeBinary(key, enc); err != nil {
			return fmt.Errorf("group %d: %w", key, err)
		}
		return nil
	})
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

	return runNodes(n, func(id int) ([]TupleGroup, error) {
		return RunGroupByNode(id, localKeys[id], localCols[id], workers, specs, tr, cfg, nil)
	})
}

// ValidateShardColumns checks the shard shape of a multi-aggregate
// GROUP BY input: as many column shards as key shards, specs must be
// valid, every column of a shard must be as long as its key slice, and
// every shard with rows must carry every column any spec reads. Shards
// without rows may omit their columns.
func ValidateShardColumns(localKeys [][]uint32, localCols [][][]float64, specs []sqlagg.AggSpec) error {
	if len(localCols) != len(localKeys) {
		return fmt.Errorf("%w: %d key shards vs %d column shards",
			ErrShardMismatch, len(localKeys), len(localCols))
	}
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
// over an externally owned transport. Its combiner plans the spec list
// into its physical tuple (sqlagg.TuplePlan: shared sums, one row
// count, extrema) and folds the local shard into one such tuple per
// key, encoded into one shuffle message per owner (a record is ⟨key,
// length, flushed tuple⟩, see appendTuple); exchange does the rest.
// Exported for multi-process runtimes (internal/dist/proc);
// AggregateTuplesConfig runs the same function on one goroutine per
// node.
//
// mem is what the node's last run left (see NodeMemory): the in-process
// plane passes nil and allocates per run, a cluster worker passes its
// own from job to job.
func RunGroupByNode(id int, keys []uint32, cols [][]float64, workers int, specs []sqlagg.AggSpec, tr Transport, cfg Config, mem *NodeMemory) ([]TupleGroup, error) {
	if mem == nil {
		mem = new(NodeMemory)
	}
	var plan *sqlagg.TuplePlan
	err := ValidateShardColumns([][]uint32{keys}, [][][]float64{cols}, specs)
	if err == nil {
		plan, err = mem.planFor(specs)
	}
	if err != nil { // every node owns keys, so every node hears of it
		return exchange(id, mem.emptyFrames(tr.Nodes()), err, tr, cfg, mem)
	}
	frames, err := combineShard(keys, cols, plan, tr.Nodes(), workers, mem)
	return exchange(id, frames, err, tr, cfg, mem)
}

// exchange is every distributed aggregate's protocol after its
// combiner. The owners are nodes 0 … len(frames)−1, and frames[d] is
// what this node ships to owner d. Ship one shuffle message to every
// owner (chunked when large) — frames[d], or the combiner's failure
// cerr on the same stream. As an owner, merge the messages addressed
// to this node (exactly one per sender, reassembled and deduplicated)
// component-wise into a table sized from the first one, finalize every
// spec from the merged components, and ship the finalized groups to
// the root. The root (node 0, always an owner) additionally collects
// every other owner's gather message and merges the per-owner sorted
// runs into the global result — which it can do as soon as all gathers
// are in, because a gather proves its owner needed no more resends.
// Every other node keeps serving chunk re-requests and returns only
// after the transport is closed underneath it, with the error its role
// ended in (already announced on the wire) — nil for a clean run. The
// frames are encoded under mem's plan (planFor).
//
// The exchange runs on the collector and so has its straggler
// handling: a receiver that makes no progress for ChildDeadline
// re-requests what is missing — whole streams it has heard nothing of,
// individual chunks of partially received ones — every node caches its
// outgoing chunk lists and retransmits on demand, and a permanently
// silent peer surfaces ErrStraggler instead of a hang.
func exchange(id int, frames [][]byte, cerr error, tr Transport, cfg Config, mem *NodeMemory) ([]TupleGroup, error) {
	n, owners, maxMessage := tr.Nodes(), len(frames), cfg.maxMessage()
	// Chunking lifted the old 16 MiB per-(sender, owner) frame ceiling —
	// a logical shuffle payload travels as however many wire chunks it
	// needs. The remaining bound is the configuration's maxMessage
	// (reassembly budget, capped by chunk payload × chunk-count limit):
	// a payload no receiver could ever accept is rejected here,
	// identically on every transport, so cross-transport equivalence
	// stays exact and the failure names the knobs to turn.
	for d, frame := range frames {
		if cerr == nil && len(frame) > maxMessage {
			cerr = fmt.Errorf("%w: shuffle payload to node %d is %d bytes (max message %d); raise ReassemblyBudget/MaxChunkPayload or use more nodes",
				ErrChunkBudget, d, len(frame), maxMessage)
		}
	}

	// Shuffle: one message (possibly empty, so owners can count
	// senders) to every owner — the combiner's frame, or its failure on
	// the same stream.
	col := newCollector(id, tr, cfg)
	cfg.gate.wait(id)
	for d := 0; d < owners; d++ {
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
	for s := 0; s < n && id < owners; s++ {
		col.expect(s, seqShuffle)
	}
	for s := 1; s < owners && id == 0; s++ {
		col.expect(s, seqGather)
	}
	gathers := make([][]byte, 0, owners)
	// Root-side hop digests for Config.Trace: per-sender payload
	// digests folded order-invariantly (XOR), so a reordering
	// transport reports the same digest for the same bytes.
	var shuffleDigest, gatherDigest uint64
	traceHops := cfg.Trace != nil && id == 0
	owner := ownerMerge{plan: mem.plan, senders: n, mem: mem}
	ownErr := cerr
	if ownErr == nil {
		ownErr = col.collect(func(msg Frame) error {
			switch {
			case msg.Seq == seqShuffle && msg.Kind == KindGroups:
				if traceHops {
					shuffleDigest ^= obs.FNV64a(msg.Payload)
				}
				if e := owner.merge(msg.Payload); e != nil {
					return fmt.Errorf("dist: node %d merging shuffle from node %d: %w", id, msg.From, e)
				}
				return nil
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
	// into a run in key order.
	var local []TupleGroup
	if ownErr == nil {
		local = owner.table.Groups()
	}

	if id >= owners {
		col.serve()
		return nil, ownErr
	}
	if id != 0 {
		out := Frame{Kind: KindGather, From: id, To: 0, Seq: seqGather}
		if size := len(local) * TupleRecordSize(len(mem.specs)); ownErr == nil && size > maxMessage {
			ownErr = fmt.Errorf("%w: gather message from node %d would be %d bytes (max message %d)",
				ErrChunkBudget, id, size, maxMessage)
		}
		if ownErr != nil {
			out.Kind, out.Payload = KindError, EncodeErr(ownErr)
		} else {
			mem.gather = appendTupleGroups(mem.gather[:0], local, len(mem.specs))
			out.Payload = mem.gather
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
		run, derr := DecodeTupleGroups(payload, len(mem.specs))
		if derr != nil {
			return nil, fmt.Errorf("dist: root decoding gather: %w", derr)
		}
		runs = append(runs, run)
	}
	return mergeSortedRuns(runs), nil
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

// combineShard pre-aggregates one node's rows into per-key physical
// tuples and returns one encoded logical shuffle payload per
// destination node (owner says which). Like the paper's operator it
// partitions only when it has to (groupby.Layout): if one table of all
// the shard's keys stays in cache the rows are folded into that table
// where they lie, every column read once and in order. Otherwise the
// shard is radix-partitioned into key ranges, the columns the plan reads
// beside the keys, and one partition-sized table is reused across the
// partitions. Either way the rows run through agg.AggregateParts on one
// worker: workers parallelises the radix pass only. Every owner's frame
// is sized once, before the loop, from the partitions (ownerBounds), and
// each table's tuples are encoded into their owners' frames. The
// scatter targets, the table and the frames come from mem, which the
// frames alias.
func combineShard(keys []uint32, cols [][]float64, plan *sqlagg.TuplePlan, n, workers int, mem *NodeMemory) ([][]byte, error) {
	frames := mem.emptyFrames(n)
	if len(keys) == 0 {
		return frames, nil // no rows: every shuffle message is empty
	}
	read := make([][]float64, len(cols))
	for c := range cols {
		if plan.Reads(c) {
			read[c] = cols[c]
		}
	}
	parts := partition.Recursive(keys, read, 0, agg.DefaultFanout, workers)
	if part, _ := groupby.Layout(plan, parts[0].Bound(), 1); part {
		parts = partition.Split(parts[0], agg.DefaultFanout, workers, &mem.arena)
	}
	est := make([]int, n)
	maxBound, sumBound := 0, 0
	for _, pt := range parts {
		maxBound, sumBound = max(maxBound, pt.Bound()), sumBound+pt.Bound()
		ownerBounds(est, pt)
	}
	for d, records := range est {
		frames[d] = slices.Grow(frames[d], records*recordSize(plan))
	}
	_, bsz := groupby.Layout(plan, maxBound, len(keys)/sumBound)
	// Slot order fixes the frames' record order; the owners' per-key
	// merges commute, so it is immaterial to the bits.
	var err error
	agg.AggregateParts(parts, 1,
		func(bound int) *groupby.Table {
			mem.combine = groupby.Recycle(mem.combine, plan, bound, bsz)
			return mem.combine
		},
		(*groupby.Table).AddPart,
		func(_ int, t *groupby.Table) {
			t.ForEach(func(key uint32, tup *sqlagg.Tuple) {
				if err == nil {
					d := owner(key, n)
					frames[d], err = appendTuple(frames[d], key, plan, tup)
				}
			})
		})
	return frames, err
}

// owner is the node whose shuffle message carries key: its low byte's.
func owner(key uint32, n int) int { return int(key%shuffleFanout) % n }

// ownerBounds adds to est[d] a bound on the distinct keys of pt that
// owner d receives. Per low byte b those are at most the keys of
// [pt.Lo, pt.Hi] congruent to b modulo shuffleFanout — exact for dense
// keys — and, where the range is wider than the rows, at most the rows
// carrying b, so a part's bounds sum to no more than pt.Bound(). They
// never undercount: frames sized from them never grow.
func ownerBounds(est []int, pt partition.Part[float64]) {
	span := uint64(pt.Hi - pt.Lo)
	sparse := span >= uint64(len(pt.Keys))
	var rows [shuffleFanout]uint64
	if sparse {
		for _, k := range pt.Keys {
			rows[k%shuffleFanout]++
		}
	}
	for b := range uint64(shuffleFanout) {
		// The range's first key with low byte b is pt.Lo + off.
		if off := (b - uint64(pt.Lo)) % shuffleFanout; off <= span {
			keys := (span-off)/shuffleFanout + 1
			if sparse {
				keys = min(keys, rows[b])
			}
			est[b%uint64(len(est))] += int(keys)
		}
	}
}

// TupleRecordSize is the fixed byte width of one finalized group in
// EncodeTupleGroups' layout: the key plus one float64 per spec.
func TupleRecordSize(nspecs int) int { return 4 + 8*nspecs }

// EncodeTupleGroups flattens finalized multi-aggregate groups into the
// gather wire layout (4-byte key, then 8-byte float64 bits per spec) —
// also the result payload of a multi-process GROUP BY and the serving
// layer's canonical result encoding.
func EncodeTupleGroups(gs []TupleGroup, nspecs int) []byte {
	return appendTupleGroups(nil, gs, nspecs)
}

// appendTupleGroups appends EncodeTupleGroups' bytes to buf.
func appendTupleGroups(buf []byte, gs []TupleGroup, nspecs int) []byte {
	rec, at := TupleRecordSize(nspecs), len(buf)
	buf = slices.Grow(buf, len(gs)*rec)[:at+len(gs)*rec]
	for i, g := range gs {
		PutTupleGroup(buf[at+i*rec:at+(i+1)*rec], g.Key, g.Aggs)
	}
	return buf
}

// PutTupleGroup writes one finalized group, its key and then aggs, as
// EncodeTupleGroups lays it out, to dst[:TupleRecordSize(len(aggs))].
func PutTupleGroup(dst []byte, key uint32, aggs []float64) {
	binary.LittleEndian.PutUint32(dst, key)
	for i, v := range aggs {
		binary.LittleEndian.PutUint64(dst[4+8*i:], math.Float64bits(v))
	}
}

// DecodeTupleGroups inverts EncodeTupleGroups. The payload length must
// be an exact multiple of the record size (the payload crosses the
// process boundary in proc clusters). All aggregate values share one
// flat backing array.
func DecodeTupleGroups(buf []byte, nspecs int) ([]TupleGroup, error) {
	rec := TupleRecordSize(nspecs)
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
