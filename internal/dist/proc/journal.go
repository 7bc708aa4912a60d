package proc

// Supervisor write-ahead journal.
//
// The clusterLoop appends one compact binary record at every control-plane
// state transition — membership admit/park/promote, job start/completion,
// epoch bumps, the bound control address — so that a crashed supervisor can
// be restarted against the same directory and re-enter its last consistent
// phase: NewCluster replays the journal, bumps the fencing epoch, re-binds
// the journaled listener address, restores per-slot incarnations, and waits
// for the orphaned workers to re-attach instead of respawning them. Because
// incarnations are restored (not reset), a job that was dispatched but
// unfinished at the crash re-runs at a bumped incarnation, exactly like a
// worker replacement — so seeded fault injections do not re-fire and the
// recovered result is byte-identical to an undisturbed run.
//
// On-disk format (same strictness discipline as the frame codec):
//
//	header:  "RPJL" magic + 1-byte format version
//	record:  [kind 1B][payload len u32 LE][payload][CRC32-IEEE u32 LE]
//
// The CRC covers kind + length + payload. Decoding is hostile-input safe:
// unknown kinds, oversized lengths, wrong per-kind payload sizes, non-canonical
// booleans, and CRC mismatches all error (never panic), and a decoded record
// re-encodes to exactly the bytes consumed (a fixpoint, fuzzed by
// FuzzJournalDecode). A *truncated* trailing record is the expected signature
// of a crash mid-append: replay tolerates it by truncating the file back to
// the last consistent record boundary. Corruption *before* the tail is fatal.
//
// Durability: each append is a single contiguous write; the file is fsynced
// when a new epoch is opened and at compaction, which is sufficient for the
// kill -9 process-crash model this journal defends against (machine-loss
// durability would need per-record fsync and is deliberately out of scope).
// After journalCompactEvery appends the loop folds the live state into one
// snapshot record written to a temp file and renamed over the journal.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// Journal record kinds. Values are part of the on-disk format; append only.
const (
	jrEpoch    byte = 1 // supervisor incarnation opened: payload epoch u64
	jrAddr     byte = 2 // control listener bound: payload u16 len + addr
	jrAdmit    byte = 3 // member admitted: payload slot i64 + incarnation i64
	jrGone     byte = 4 // member lost: payload slot i64
	jrPark     byte = 5 // joiner parked as standby: empty payload
	jrPromote  byte = 6 // standby promoted toward a slot: payload slot i64
	jrJobStart byte = 7 // job dispatched: payload job index i64
	jrJobDone  byte = 8 // job finished (ok or failed): payload job index i64
	jrSnapshot byte = 9 // compaction snapshot of the whole journalState
)

const (
	journalMagic   = "RPJL"
	journalVersion = 1
	journalFile    = "cluster.journal"

	// journalHeaderLen is the fixed file prologue: magic + format version.
	journalHeaderLen = len(journalMagic) + 1

	// journalRecHeaderLen is kind + payload length; journalRecCRCLen trails.
	journalRecHeaderLen = 5
	journalRecCRCLen    = 4

	// maxJournalPayload bounds a single record against hostile or corrupt
	// length fields. Snapshots dominate: 26 fixed bytes + addr + 9 per slot,
	// far under this even for absurd clusters.
	maxJournalPayload = 1 << 20

	// maxJournalSlots bounds slot indices during replay; anything larger is
	// corruption, not a cluster size this package can spawn.
	maxJournalSlots = 1 << 16

	// journalCompactEvery triggers snapshot compaction after this many
	// appends since the last snapshot (or open).
	journalCompactEvery = 1024
)

// errJournalShort marks an incomplete record at the end of the byte stream —
// the torn-write signature replay tolerates. It is never returned for
// corruption inside a complete record.
var errJournalShort = errors.New("proc: journal record truncated")

// journalRecord is one decoded (or to-be-encoded) journal record. Only the
// fields relevant to its kind are meaningful.
type journalRecord struct {
	kind  byte
	epoch uint64      // jrEpoch
	slot  int64       // jrAdmit, jrGone, jrPromote
	inc   int64       // jrAdmit
	job   int64       // jrJobStart, jrJobDone
	addr  string      // jrAddr
	snap  journalSnap // jrSnapshot
}

// journalSnap is the full supervisor state a compaction folds the log into.
type journalSnap struct {
	epoch    uint64
	nextJob  int64
	inFlight int64 // dispatched-but-unfinished job index, -1 if none
	addr     string
	incs     []int64 // next incarnation per slot
	members  []bool  // slot occupied at snapshot time
}

// appendJournalRecord appends the canonical encoding of r to b.
func appendJournalRecord(b []byte, r journalRecord) []byte {
	start := len(b)
	b = append(b, r.kind, 0, 0, 0, 0) // length patched below
	switch r.kind {
	case jrEpoch:
		b = appendU64(b, r.epoch)
	case jrAddr:
		b = appendJournalString(b, r.addr)
	case jrAdmit:
		b = appendI64(b, r.slot)
		b = appendI64(b, r.inc)
	case jrGone, jrPromote:
		b = appendI64(b, r.slot)
	case jrPark:
		// empty payload
	case jrJobStart, jrJobDone:
		b = appendI64(b, r.job)
	case jrSnapshot:
		b = appendU64(b, r.snap.epoch)
		b = appendI64(b, r.snap.nextJob)
		b = appendI64(b, r.snap.inFlight)
		b = appendJournalString(b, r.snap.addr)
		b = appendU16(b, uint16(len(r.snap.incs)))
		for i, inc := range r.snap.incs {
			b = appendI64(b, inc)
			if r.snap.members[i] {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	}
	binary.LittleEndian.PutUint32(b[start+1:], uint32(len(b)-start-journalRecHeaderLen))
	sum := crc32.ChecksumIEEE(b[start:])
	return appendU32(b, sum)
}

func appendJournalString(b []byte, s string) []byte {
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

// decodeJournalRecord decodes one record from the front of b, returning the
// record and the number of bytes consumed. An incomplete suffix returns
// errJournalShort; everything else malformed returns a hard error. The decode
// is strict enough that re-encoding the result reproduces the consumed bytes.
func decodeJournalRecord(b []byte) (journalRecord, int, error) {
	var r journalRecord
	if len(b) < journalRecHeaderLen {
		return r, 0, errJournalShort
	}
	r.kind = b[0]
	plen := binary.LittleEndian.Uint32(b[1:])
	if plen > maxJournalPayload {
		return r, 0, fmt.Errorf("proc: journal record payload %d exceeds limit %d", plen, maxJournalPayload)
	}
	total := journalRecHeaderLen + int(plen) + journalRecCRCLen
	if len(b) < total {
		return r, 0, errJournalShort
	}
	body := b[:journalRecHeaderLen+int(plen)]
	want := binary.LittleEndian.Uint32(b[journalRecHeaderLen+int(plen):])
	if got := crc32.ChecksumIEEE(body); got != want {
		return r, 0, fmt.Errorf("proc: journal record CRC mismatch: got %08x want %08x", got, want)
	}
	p := body[journalRecHeaderLen:]
	switch r.kind {
	case jrEpoch:
		if len(p) != 8 {
			return r, 0, journalSizeErr(r.kind, len(p))
		}
		r.epoch = binary.LittleEndian.Uint64(p)
	case jrAddr:
		s, rest, err := cutJournalString(p)
		if err != nil || len(rest) != 0 {
			return r, 0, journalSizeErr(r.kind, len(p))
		}
		r.addr = s
	case jrAdmit:
		if len(p) != 16 {
			return r, 0, journalSizeErr(r.kind, len(p))
		}
		r.slot = int64(binary.LittleEndian.Uint64(p))
		r.inc = int64(binary.LittleEndian.Uint64(p[8:]))
	case jrGone, jrPromote:
		if len(p) != 8 {
			return r, 0, journalSizeErr(r.kind, len(p))
		}
		r.slot = int64(binary.LittleEndian.Uint64(p))
	case jrPark:
		if len(p) != 0 {
			return r, 0, journalSizeErr(r.kind, len(p))
		}
	case jrJobStart, jrJobDone:
		if len(p) != 8 {
			return r, 0, journalSizeErr(r.kind, len(p))
		}
		r.job = int64(binary.LittleEndian.Uint64(p))
	case jrSnapshot:
		if len(p) < 24 {
			return r, 0, journalSizeErr(r.kind, len(p))
		}
		r.snap.epoch = binary.LittleEndian.Uint64(p)
		r.snap.nextJob = int64(binary.LittleEndian.Uint64(p[8:]))
		r.snap.inFlight = int64(binary.LittleEndian.Uint64(p[16:]))
		s, rest, err := cutJournalString(p[24:])
		if err != nil {
			return r, 0, journalSizeErr(r.kind, len(p))
		}
		r.snap.addr = s
		if len(rest) < 2 {
			return r, 0, journalSizeErr(r.kind, len(p))
		}
		n := int(binary.LittleEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) != n*9 {
			return r, 0, journalSizeErr(r.kind, len(p))
		}
		r.snap.incs = make([]int64, n)
		r.snap.members = make([]bool, n)
		for i := 0; i < n; i++ {
			r.snap.incs[i] = int64(binary.LittleEndian.Uint64(rest))
			switch rest[8] {
			case 0:
				// member flag already false
			case 1:
				r.snap.members[i] = true
			default:
				// Reject non-canonical booleans so decode→encode stays a
				// byte fixpoint.
				return r, 0, fmt.Errorf("proc: journal snapshot member flag %d is not 0 or 1", rest[8])
			}
			rest = rest[9:]
		}
	default:
		return r, 0, fmt.Errorf("proc: unknown journal record kind %d", r.kind)
	}
	return r, total, nil
}

func journalSizeErr(kind byte, n int) error {
	return fmt.Errorf("proc: journal record kind %d has malformed payload (%d bytes)", kind, n)
}

func cutJournalString(p []byte) (string, []byte, error) {
	if len(p) < 2 {
		return "", nil, errJournalShort
	}
	n := int(binary.LittleEndian.Uint16(p))
	if len(p) < 2+n {
		return "", nil, errJournalShort
	}
	return string(p[2 : 2+n]), p[2+n:], nil
}

// journalState is the supervisor state reconstructed by replaying a journal.
type journalState struct {
	epoch    uint64
	nextJob  int
	inFlight int // dispatched-but-unfinished job index, -1 if none
	addr     string
	incs     []int // next incarnation per slot (inc > 0 ⇒ slot was admitted)
	members  []bool
	records  int // records replayed
}

func newJournalState() *journalState {
	return &journalState{inFlight: -1}
}

// grow ensures slot is addressable, bounding it against corrupt indices.
func (st *journalState) grow(slot int64) error {
	if slot < 0 || slot >= maxJournalSlots {
		return fmt.Errorf("proc: journal slot %d out of range", slot)
	}
	for int64(len(st.incs)) <= slot {
		st.incs = append(st.incs, 0)
		st.members = append(st.members, false)
	}
	return nil
}

func (st *journalState) apply(r journalRecord) error {
	switch r.kind {
	case jrEpoch:
		// A new supervisor incarnation: every conn of the previous one is
		// dead, so journaled membership is cleared (incarnations persist).
		st.epoch = r.epoch
		for i := range st.members {
			st.members[i] = false
		}
	case jrAddr:
		st.addr = r.addr
	case jrAdmit:
		if err := st.grow(r.slot); err != nil {
			return err
		}
		// The journal records the incarnation the member was admitted at;
		// the *next* admission of this slot must come strictly after it.
		if next := int(r.inc) + 1; next > st.incs[r.slot] {
			st.incs[r.slot] = next
		}
		st.members[r.slot] = true
	case jrGone:
		if err := st.grow(r.slot); err != nil {
			return err
		}
		st.members[r.slot] = false
	case jrPark, jrPromote:
		// Standby lifecycle is informational: parked processes re-join on
		// their own after a crash, so replay carries no standby state.
	case jrJobStart:
		if int(r.job)+1 > st.nextJob {
			st.nextJob = int(r.job) + 1
		}
		st.inFlight = int(r.job)
	case jrJobDone:
		if st.inFlight == int(r.job) {
			st.inFlight = -1
		}
	case jrSnapshot:
		if len(r.snap.incs) > maxJournalSlots {
			return fmt.Errorf("proc: journal snapshot has %d slots", len(r.snap.incs))
		}
		st.epoch = r.snap.epoch
		st.nextJob = int(r.snap.nextJob)
		st.inFlight = int(r.snap.inFlight)
		st.addr = r.snap.addr
		st.incs = make([]int, len(r.snap.incs))
		st.members = make([]bool, len(r.snap.incs))
		for i, inc := range r.snap.incs {
			st.incs[i] = int(inc)
			st.members[i] = r.snap.members[i]
		}
	}
	st.records++
	return nil
}

// replayJournal replays every complete record in data (which excludes the
// file header), returning the reconstructed state and the byte offset of the
// last consistent record boundary. A truncated trailing record stops the
// replay cleanly; corruption before the tail is a hard error.
func replayJournal(data []byte) (*journalState, int, error) {
	st := newJournalState()
	off := 0
	for off < len(data) {
		rec, n, err := decodeJournalRecord(data[off:])
		if errors.Is(err, errJournalShort) {
			// Torn tail from a crash mid-append: recover to here.
			return st, off, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%w (at offset %d)", err, off+journalHeaderLen)
		}
		if err := st.apply(rec); err != nil {
			return nil, 0, err
		}
		off += n
	}
	return st, off, nil
}

// journal is an open supervisor journal. All appends happen on the
// clusterLoop goroutine; no locking is needed.
type journal struct {
	path      string
	f         *os.File
	records   int // records in the file (replayed + appended this session)
	sinceSnap int // appends since the last snapshot (compaction trigger)
	failed    bool
}

// openJournal opens (creating if needed) the journal under dir, replays it,
// truncates any torn tail, and leaves the file positioned for appends. The
// returned state reflects the previous supervisor incarnation; the caller is
// responsible for appending the new jrEpoch.
func openJournal(dir string) (*journal, *journalState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("proc: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("proc: open journal: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("proc: read journal: %w", err)
	}
	if len(data) == 0 {
		// Fresh journal: write the header.
		if _, err := f.Write(journalHeader()); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("proc: write journal header: %w", err)
		}
		return &journal{path: path, f: f}, newJournalState(), nil
	}
	if len(data) < journalHeaderLen || string(data[:len(journalMagic)]) != journalMagic {
		f.Close()
		return nil, nil, fmt.Errorf("proc: %s is not a supervisor journal", path)
	}
	if v := data[len(journalMagic)]; v != journalVersion {
		f.Close()
		return nil, nil, fmt.Errorf("proc: journal format version %d, this build speaks %d", v, journalVersion)
	}
	st, consistent, err := replayJournal(data[journalHeaderLen:])
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	end := int64(journalHeaderLen + consistent)
	if end < int64(len(data)) {
		// Drop the torn record so the next append lands on a clean boundary.
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("proc: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(end, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("proc: seek journal: %w", err)
	}
	return &journal{path: path, f: f, records: st.records}, st, nil
}

func journalHeader() []byte {
	return append([]byte(journalMagic), journalVersion)
}

// append writes one record. Failures are sticky: after the first error the
// journal stops accepting appends so a partial write cannot be followed by
// records that would replay against a hole.
func (j *journal) append(r journalRecord) error {
	if j.failed {
		return errors.New("proc: journal failed earlier, appends disabled")
	}
	buf := appendJournalRecord(nil, r)
	if _, err := j.f.Write(buf); err != nil {
		j.failed = true
		return fmt.Errorf("proc: journal append: %w", err)
	}
	j.records++
	j.sinceSnap++
	return nil
}

// sync flushes appended records to stable storage.
func (j *journal) sync() error {
	if j.failed {
		return nil
	}
	return j.f.Sync()
}

// compact folds the log into a single snapshot record, written to a temp
// file and renamed over the journal so a crash mid-compaction leaves either
// the old log or the new snapshot, never a mix.
func (j *journal) compact(snap journalSnap) error {
	if j.failed {
		return errors.New("proc: journal failed earlier, compaction disabled")
	}
	buf := appendJournalRecord(journalHeader(), journalRecord{kind: jrSnapshot, snap: snap})
	tmp := j.path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		j.failed = true
		return fmt.Errorf("proc: journal compact: %w", err)
	}
	nf, err := os.OpenFile(tmp, os.O_RDWR, 0o644)
	if err != nil {
		j.failed = true
		return fmt.Errorf("proc: journal compact: %w", err)
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		j.failed = true
		return fmt.Errorf("proc: journal compact: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		nf.Close()
		j.failed = true
		return fmt.Errorf("proc: journal compact: %w", err)
	}
	if _, err := nf.Seek(int64(len(buf)), 0); err != nil {
		nf.Close()
		j.failed = true
		return fmt.Errorf("proc: journal compact: %w", err)
	}
	j.f.Close()
	j.f = nf
	j.records = 1
	j.sinceSnap = 0
	return nil
}

func (j *journal) close() error {
	return j.f.Close()
}

// probeJournalDir verifies dir is usable for a journal by creating it (if
// absent) and writing a probe file, so misconfiguration surfaces as a typed
// ErrConfig at Validate time instead of a mid-run journal failure.
func probeJournalDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	probe := filepath.Join(dir, ".probe")
	f, err := os.Create(probe)
	if err != nil {
		return err
	}
	f.Close()
	return os.Remove(probe)
}

// ErrRecovering marks a job failure caused by a recovery window: the cluster
// is waiting for workers to re-attach (or be replaced) and could not fill
// every slot in time. Serving layers map it to backpressure (503 +
// Retry-After) rather than a hard failure — see internal/serve.
var ErrRecovering = errors.New("proc: cluster recovering")

// lastRecoveryClock lets tests observe recovery timestamps deterministically.
var lastRecoveryClock = time.Now
