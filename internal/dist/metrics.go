package dist

import "repro/internal/obs"

// The data plane's wire counters, registered on the process-global
// obs.Default registry. Handles are package-level so the hot paths
// (frame write/read, chunk split, reassembly) record through a single
// pre-resolved atomic — no map lookup, no allocation — which is what
// keeps the zero-alloc shuffle pins intact with instrumentation on.
// Worker processes read the same counters through WireStats and ship
// them to the supervisor piggybacked on heartbeat pings.
var (
	mFramesOut = obs.Default.Counter("repro_dist_wire_frames_out_total",
		"Wire frames written (every chunk written to a socket counts once).")
	mFramesIn = obs.Default.Counter("repro_dist_wire_frames_in_total",
		"Wire frames read and CRC-validated.")
	mBytesOut = obs.Default.Counter("repro_dist_wire_bytes_out_total",
		"Wire bytes written, headers and checksums included.")
	mBytesIn = obs.Default.Counter("repro_dist_wire_bytes_in_total",
		"Wire bytes read, headers and checksums included.")
	mChanFrames = obs.Default.Counter("repro_dist_chan_frames_total",
		"Frames delivered by reference over the in-process chan transport.")
	mChunksSplit = obs.Default.Counter("repro_dist_chunks_split_total",
		"Chunks produced by splitting logical messages for the wire.")
	mRetransmits = obs.Default.Counter("repro_dist_retransmit_chunks_total",
		"Chunks re-sent from cache in answer to a resend request.")
	mResendReqs = obs.Default.Counter("repro_dist_resend_requests_total",
		"Resend requests issued for missing chunks (straggler recovery).")
	mReasmRejects = obs.Default.Counter("repro_dist_reassembly_rejects_total",
		"Messages rejected by the reassembly memory budget.")
)

// WireStats is a point-in-time read of the process's data-plane wire
// counters. Workers encode one into each heartbeat ping; the
// supervisor adds the deltas into its cluster's
// repro_proc_worker_wire_*_total series (ClusterStats.Worker reads them
// back), so a cluster's aggregate traffic is visible from one place.
type WireStats struct {
	FramesOut, FramesIn uint64
	BytesOut, BytesIn   uint64
	ChanFrames          uint64
	ChunksSplit         uint64
	Retransmits         uint64
	ResendRequests      uint64
	ReassemblyRejects   uint64
}

// ReadWireStats snapshots the process-global wire counters.
func ReadWireStats() WireStats {
	return WireStats{
		FramesOut:         mFramesOut.Value(),
		FramesIn:          mFramesIn.Value(),
		BytesOut:          mBytesOut.Value(),
		BytesIn:           mBytesIn.Value(),
		ChanFrames:        mChanFrames.Value(),
		ChunksSplit:       mChunksSplit.Value(),
		Retransmits:       mRetransmits.Value(),
		ResendRequests:    mResendReqs.Value(),
		ReassemblyRejects: mReasmRejects.Value(),
	}
}

// Sub returns s - prev field by field: the traffic between two reads
// of one process's counters. A counter that went backwards cannot come
// from the same process, so its full current value is the delta. The
// supervisor takes each worker's delta against that same process's
// previous report (found by the process nonce its pings carry), so a
// replacement is never measured against its dead predecessor.
func (s WireStats) Sub(prev WireStats) WireStats {
	d := func(cur, old uint64) uint64 {
		if cur < old {
			return cur
		}
		return cur - old
	}
	return WireStats{
		FramesOut:         d(s.FramesOut, prev.FramesOut),
		FramesIn:          d(s.FramesIn, prev.FramesIn),
		BytesOut:          d(s.BytesOut, prev.BytesOut),
		BytesIn:           d(s.BytesIn, prev.BytesIn),
		ChanFrames:        d(s.ChanFrames, prev.ChanFrames),
		ChunksSplit:       d(s.ChunksSplit, prev.ChunksSplit),
		Retransmits:       d(s.Retransmits, prev.Retransmits),
		ResendRequests:    d(s.ResendRequests, prev.ResendRequests),
		ReassemblyRejects: d(s.ReassemblyRejects, prev.ReassemblyRejects),
	}
}
