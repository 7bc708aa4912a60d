package proc

// Supervisor journal.
//
// The journal is one file holding one record: a snapshot of the
// control-plane state a restarted supervisor needs — fencing epoch, bound
// control address, job cursor, per-slot incarnations — and nothing
// else. The clusterLoop replaces it at every transition that changes
// that state (epoch open, member admitted, job started), so a crashed
// supervisor can be restarted against the same directory and re-enter its
// last consistent phase: NewCluster reads the snapshot, bumps the fencing
// epoch, re-binds the journaled listener address, restores per-slot
// incarnations, and waits for the orphaned workers to re-attach instead of
// respawning them. Because incarnations are restored (not reset), a job that
// was dispatched but unfinished at the crash re-runs at a bumped incarnation,
// exactly like a worker replacement — so seeded fault injections do not
// re-fire and the recovered result is byte-identical to an undisturbed run.
//
// On-disk format (same strictness discipline as the frame codec):
//
//	"RPJL" magic, 1-byte format version (3),
//	8B epoch, 8B next job,
//	2B-length-prefixed control address,
//	2B slot count, then per slot 8B next incarnation,
//	CRC32-IEEE (u32 LE) of everything before it
//
// Decoding is hostile-input safe: a wrong magic or version, a CRC mismatch, a
// length that disagrees with the bytes present or an out-of-range counter is
// an errBadJournal (never a panic, never a half state), and a decoded
// snapshot re-encodes to exactly the bytes read (fuzzed by FuzzControlDecode).
//
// Each replacement writes cluster.journal.tmp and renames it over
// cluster.journal, so a crash at any instant leaves the previous snapshot or
// the new one, never a mix, and there is no log to replay, compact or repair.
// The file is fsynced when a new epoch is opened, which is sufficient for the
// kill -9 process-crash model this journal defends against (machine-loss
// durability would need an fsync per transition and is deliberately out of
// scope).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

const (
	journalMagic   = "RPJL"
	journalVersion = 3
	journalFile    = "cluster.journal"

	// journalHeaderLen is the fixed file prologue: magic + format version.
	journalHeaderLen = len(journalMagic) + 1

	// maxJournalSlots is what the snapshot's 2-byte slot count can carry.
	maxJournalSlots = math.MaxUint16
)

// errBadJournal marks a journal file that is not one well-formed snapshot of
// this format version.
var errBadJournal = errors.New("proc: malformed supervisor journal")

// journalSnap is the persisted supervisor state.
type journalSnap struct {
	epoch   uint64
	nextJob int
	addr    string
	incs    []int // next incarnation per slot (inc > 0 ⇒ slot was admitted)
}

// encodeJournalSnap is the canonical file image of s.
func encodeJournalSnap(s journalSnap) []byte {
	b := make([]byte, 0, journalHeaderLen+20+len(s.addr)+8*len(s.incs)+4)
	b = append(append(b, journalMagic...), journalVersion)
	b = appendU64(b, s.epoch)
	b = appendI64(b, int64(s.nextJob))
	b = appendString(b, s.addr)
	b = appendU16(b, uint16(len(s.incs)))
	for _, inc := range s.incs {
		b = appendI64(b, int64(inc))
	}
	return appendU32(b, crc32.ChecksumIEEE(b))
}

// decodeJournalSnap inverts encodeJournalSnap; every failure is an
// errBadJournal.
func decodeJournalSnap(data []byte) (journalSnap, error) {
	var s journalSnap
	if len(data) < journalHeaderLen+4 || string(data[:len(journalMagic)]) != journalMagic {
		return s, fmt.Errorf("%w: not a supervisor journal", errBadJournal)
	}
	if v := data[len(journalMagic)]; v != journalVersion {
		return s, fmt.Errorf("%w: format version %d, this build speaks %d", errBadJournal, v, journalVersion)
	}
	body := data[:len(data)-4]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(data[len(body):]); got != want {
		return s, fmt.Errorf("%w: CRC mismatch: got %08x want %08x", errBadJournal, got, want)
	}
	r := &confReader{b: body[journalHeaderLen:], what: "journal snapshot"}
	s.epoch = r.u64()
	// Counters are bounded to 31 bits so a snapshot means the same state
	// where int is 32 bits wide.
	counter := func() int {
		v := r.i64()
		if r.err == nil && (v < 0 || v > math.MaxInt32) {
			r.err = fmt.Errorf("proc: journal snapshot counter %d out of range", v)
		}
		return int(v)
	}
	s.nextJob = counter()
	s.addr = r.str()
	n := int(r.u16())
	if r.err == nil && len(r.b) != 8*n {
		r.err = fmt.Errorf("proc: journal snapshot declares %d slots in %d bytes", n, len(r.b))
	}
	if r.err == nil {
		s.incs = make([]int, n)
	}
	for i := range s.incs {
		s.incs[i] = counter()
	}
	if err := r.done(); err != nil {
		return journalSnap{}, fmt.Errorf("%w: %v", errBadJournal, err)
	}
	return s, nil
}

// journal is an open supervisor journal. Every write happens in NewCluster
// or on the clusterLoop goroutine it then starts; no locking is needed.
type journal struct {
	path   string
	failed bool
}

// openJournal reads the snapshot under dir (creating dir if needed). An
// absent or empty file is a fresh journal: found is false and prev is the
// empty state (epoch 0, no slots). The returned state is the previous
// supervisor incarnation's; the caller writes its own, with the epoch bumped.
func openJournal(dir string) (j *journal, prev journalSnap, found bool, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, prev, false, fmt.Errorf("proc: journal dir: %w", err)
	}
	j = &journal{path: filepath.Join(dir, journalFile)}
	data, err := os.ReadFile(j.path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, prev, false, fmt.Errorf("proc: read journal: %w", err)
	}
	if len(data) == 0 {
		return j, journalSnap{}, false, nil
	}
	if prev, err = decodeJournalSnap(data); err != nil {
		return nil, prev, false, fmt.Errorf("%w (%s)", err, j.path)
	}
	return j, prev, true, nil
}

// write replaces the journal with s: a temp file renamed over it, fsynced
// first when durable. Failures are sticky: the file still holds the state
// before the transition that could not be recorded, so no later transition
// may be recorded as if it had followed it.
func (j *journal) write(s journalSnap, durable bool) error {
	if j.failed {
		return errors.New("proc: journal failed earlier, writes disabled")
	}
	if len(s.incs) > maxJournalSlots {
		return fmt.Errorf("proc: journal holds at most %d slots, cluster has %d", maxJournalSlots, len(s.incs))
	}
	tmp := j.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		_, err = f.Write(encodeJournalSnap(s))
		if err == nil && durable {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, j.path)
	}
	if err != nil {
		j.failed = true
		return fmt.Errorf("proc: journal write: %w", err)
	}
	return nil
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
