package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/groupby"
	"repro/internal/obs"
	"repro/internal/sqlagg"
)

// sumSpecs is the spec list of the classic GROUP BY SUM: one
// reproducible SUM over column 0, at the distributed plane's level
// count. Its wire tuples are byte-identical to the pre-spec frames.
func sumSpecs() []sqlagg.AggSpec {
	return []sqlagg.AggSpec{{Kind: sqlagg.AggSum, Levels: levels, Col: 0}}
}

// shuffleFanout is the radix fan-out of the hash shuffle. Keys are
// routed by groupby.Partition on their low byte; partition p is owned by
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
type TupleGroup = groupby.Group

// planShard builds the physical tuple plan for specs after checking
// that the shard's columns fit it.
func planShard(keys []uint32, cols [][]float64, specs []sqlagg.AggSpec) (*sqlagg.TuplePlan, error) {
	if err := ValidateShardColumns([][]uint32{keys}, [][][]float64{cols}, specs); err != nil {
		return nil, err
	}
	return sqlagg.NewTuplePlan(specs)
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
	table   *groupby.Table
}

// merge folds one sender's shuffle payload in.
func (o *ownerMerge) merge(payload []byte) error {
	if o.table == nil {
		if len(payload) == 0 {
			return nil
		}
		o.table = groupby.NewTable(o.plan, len(payload)/recordSize(o.plan)*o.senders, 0, 0)
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
// over an externally owned transport: plan the spec list into its
// physical tuple (sqlagg.TuplePlan: shared sums, one row count,
// extrema), combine the local shard into one such tuple per key, ship
// one shuffle message to every owner (chunked when large; a record is
// ⟨key, length, flushed tuple⟩, see appendTuple), merge the messages
// addressed to this node (exactly one per sender, reassembled and
// deduplicated) component-wise into a table sized from the first one,
// finalize every spec from the merged components, and ship the
// finalized groups to the root. The root (node 0) additionally
// collects every owner's gather message and merges the per-owner
// sorted runs into the global result — which it can do as soon as all
// gathers are in, because a gather proves its owner needed no more
// resends. Every other node keeps
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
	owner := ownerMerge{plan: plan, senders: n}
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
	// into a key-sorted run.
	var local []TupleGroup
	if ownErr == nil {
		local = owner.table.Groups()
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
// where they lie, every column read once and in order, and the tuples
// are routed as they are encoded. Otherwise the shard is
// radix-partitioned on the shuffle byte, the columns the plan reads
// beside the keys, and one partition-sized table is reused across the
// partitions. The combine is serial either way: workers parallelises
// the radix pass only. maxMessage is the configuration's
// Config.maxMessage bound.
func combineShard(keys []uint32, cols [][]float64, plan *sqlagg.TuplePlan, n, workers, maxMessage int) ([][]byte, error) {
	frames := make([][]byte, n)
	if len(keys) == 0 {
		return frames, nil // no rows: every shuffle message is empty
	}
	var err error
	groups := groupby.KeyBound(keys)
	if partition, bsz := groupby.Layout(plan, groups, len(keys)/groups); !partition {
		err = combineWhole(frames, keys, cols, plan, groups, bsz)
	} else {
		ps := groupby.Partition(keys, cols, plan.Reads, shuffleFanout, workers)
		_, bsz = groupby.Layout(plan, ps.MaxBound, len(keys)/ps.SumBound)
		err = combineParts(frames, ps, plan, bsz)
	}
	if err != nil {
		return nil, err
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

// owner is the node whose shuffle message carries key: the owner of the
// partition the key's low byte names.
func owner(key uint32, n int) int { return int(key%shuffleFanout) % n }

// appendTable encodes every tuple of table into the frame of its key's
// owner. Slot order fixes the frame layout, but the owner's per-key
// merges commute, so layout is immaterial to the final bits. With the
// frames' capacity sized beforehand the loop allocates nothing; if a
// size were ever wrong, append inside appendTuple grows geometrically
// as usual.
func appendTable(frames [][]byte, plan *sqlagg.TuplePlan, table *groupby.Table) error {
	var err error
	table.ForEach(func(key uint32, tup *sqlagg.Tuple) {
		if err == nil {
			d := owner(key, len(frames))
			frames[d], err = appendTuple(frames[d], key, plan, tup)
		}
	})
	return err
}

// sizeFrames gives every destination's frame the capacity for
// records[d] records.
func sizeFrames(frames [][]byte, plan *sqlagg.TuplePlan, records []int) {
	for d, c := range records {
		if c > 0 {
			frames[d] = make([]byte, 0, c*recordSize(plan))
		}
	}
}

// combineWhole is the unpartitioned combine: one table hinted at groups
// (never an undercount, so it does not rehash) of bsz-buffered tuples
// over all the rows, then a count of each owner's tuples to size its
// frame exactly.
func combineWhole(frames [][]byte, keys []uint32, cols [][]float64, plan *sqlagg.TuplePlan, groups, bsz int) error {
	table := groupby.NewTable(plan, groups, 0, bsz)
	table.AddRows(keys, cols)
	counts := make([]int, len(frames))
	table.ForEach(func(key uint32, _ *sqlagg.Tuple) { counts[owner(key, len(frames))]++ })
	sizeFrames(frames, plan, counts)
	return appendTable(frames, plan, table)
}

// combineParts is the partitioned combine: every partition's table goes
// into the frame of the partition's owner. The bounds never undercount,
// so frames sized from them summed per destination never grow.
func combineParts(frames [][]byte, ps *groupby.Parts, plan *sqlagg.TuplePlan, bsz int) error {
	est := make([]int, len(frames))
	for p, b := range ps.Bounds {
		est[p%len(frames)] += b
	}
	sizeFrames(frames, plan, est)
	return ps.Each(plan, bsz, 1, func(_ int, table *groupby.Table) error {
		return appendTable(frames, plan, table)
	})
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
