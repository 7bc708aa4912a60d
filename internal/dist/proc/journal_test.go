package proc

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// journalTestSnap is a representative snapshot: a recovered epoch, jobs
// dispatched, one slot never admitted and two admitted more than once.
func journalTestSnap() journalSnap {
	return journalSnap{epoch: 4, nextJob: 8, addr: "10.0.0.2:9000", incs: []int{3, 0, 6}}
}

// reopen reads dir's journal back, failing the test on any error.
func reopen(t *testing.T, dir string) (*journal, journalSnap, bool) {
	t.Helper()
	j, prev, found, err := openJournal(dir)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	return j, prev, found
}

// TestJournalRoundTrip: decode(encode(s)) == s for every field — including
// no slots at all and the 65 535 the format can carry — through the codec
// and through the file; the image is a byte fixpoint; a file that is not a
// journal, a stale format version, a flipped bit, an out-of-range counter
// and a slot count that disagrees with the bytes are all errBadJournal;
// and a journal opened, epoch written and closed 1 000 times stays one
// snapshot long while the epoch climbs.
func TestJournalRoundTrip(t *testing.T) {
	wide := journalSnap{epoch: math.MaxUint64, nextJob: math.MaxInt32, incs: make([]int, maxJournalSlots)}
	for i := range wide.incs {
		wide.incs[i] = i
	}
	dir := t.TempDir()
	for name, s := range map[string]journalSnap{
		"typical":  journalTestSnap(),
		"no slots": {epoch: 1, addr: "127.0.0.1:50000", incs: []int{}},
		"widest":   wide,
	} {
		img := encodeJournalSnap(s)
		got, err := decodeJournalSnap(img)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("%s: round trip changed the state:\n got  %+v\n want %+v", name, got, s)
		}
		if !bytes.Equal(encodeJournalSnap(got), img) {
			t.Fatalf("%s: decode→encode is not a fixpoint", name)
		}
		j, _, _ := reopen(t, dir)
		if err := j.write(s, true); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		if _, back, found := reopen(t, dir); !found || !reflect.DeepEqual(back, s) {
			t.Fatalf("%s: file round trip: found %t, state %+v", name, found, back)
		}
	}

	good := encodeJournalSnap(journalTestSnap())
	reseal := func(b []byte) []byte {
		return appendU32(b[:len(b)-4:len(b)-4], crc32.ChecksumIEEE(b[:len(b)-4]))
	}
	stale := append([]byte(nil), good...)
	stale[len(journalMagic)] = journalVersion - 1
	flipped := append([]byte(nil), good...)
	flipped[journalHeaderLen+3] ^= 0x10
	negative := append([]byte(nil), good...)
	negative[journalHeaderLen+8+7] = 0x80 // nextJob's sign bit
	path := filepath.Join(dir, journalFile)
	for name, bad := range map[string][]byte{
		"not a journal":        []byte("definitely not a journal"),
		"stale version":        reseal(stale),
		"flipped bit":          flipped,
		"negative counter":     reseal(negative),
		"trailing byte":        reseal(append(append([]byte(nil), good[:len(good)-4]...), 0, 0, 0, 0, 0)),
		"slot count too large": reseal(append(append([]byte(nil), good[:len(good)-4-8]...), 0, 0, 0, 0)),
	} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := openJournal(dir); !errors.Is(err, errBadJournal) {
			t.Errorf("%s: openJournal = %v, want errBadJournal", name, err)
		}
	}

	// The epoch-open cycle NewCluster runs, with no cluster formed: the
	// file is replaced, never grown.
	dir = t.TempDir()
	var size int64
	for i := uint64(1); i <= 1000; i++ {
		j, prev, found := reopen(t, dir)
		if found != (i > 1) || prev.epoch != i-1 {
			t.Fatalf("open %d: found %t, previous epoch %d", i, found, prev.epoch)
		}
		prev.epoch, prev.addr = prev.epoch+1, "127.0.0.1:50000"
		if err := j.write(prev, true); err != nil {
			t.Fatalf("open %d: write: %v", i, err)
		}
		fi, err := os.Stat(filepath.Join(dir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		if i > 1 && fi.Size() != size {
			t.Fatalf("open %d: journal is %d bytes, was %d", i, fi.Size(), size)
		}
		size = fi.Size()
	}
}

// TestJournalTornAtEveryByte cuts the journal file at every prefix length:
// empty is a fresh journal, every other cut is errBadJournal — never a
// panic and never a state read from part of a snapshot — and the whole file
// is the snapshot.
func TestJournalTornAtEveryByte(t *testing.T) {
	want := journalTestSnap()
	full := encodeJournalSnap(want)
	dir := t.TempDir()
	path := filepath.Join(dir, journalFile)
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, got, found, err := openJournal(dir)
		switch {
		case cut == 0:
			if err != nil || found || got.epoch != 0 || got.incs != nil {
				t.Fatalf("empty file: found %t, state %+v, err %v; want a fresh journal", found, got, err)
			}
		case cut < len(full):
			if !errors.Is(err, errBadJournal) || found || !reflect.DeepEqual(got, journalSnap{}) {
				t.Fatalf("cut at %d of %d: found %t, state %+v, err %v; want errBadJournal and no state", cut, len(full), found, got, err)
			}
		default:
			if err != nil || !found || !reflect.DeepEqual(got, want) {
				t.Fatalf("whole file: found %t, state %+v, err %v", found, got, err)
			}
		}
	}
}

// TestJournalCrashBeforeRename: a supervisor killed between writing the
// temp file and renaming it leaves the previous snapshot in place, whatever
// the temp file holds, and the next write replaces both.
func TestJournalCrashBeforeRename(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := reopen(t, dir)
	first := journalTestSnap()
	if err := j.write(first, false); err != nil {
		t.Fatalf("write: %v", err)
	}
	next := journalTestSnap()
	next.nextJob = 9
	img := encodeJournalSnap(next)
	for name, tmp := range map[string][]byte{"whole": img, "torn": img[:len(img)/2], "empty": nil} {
		if err := os.WriteFile(j.path+".tmp", tmp, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, got, found := reopen(t, dir)
		if !found || !reflect.DeepEqual(got, first) {
			t.Fatalf("%s temp file left behind: found %t, state %+v; want the previous snapshot", name, found, got)
		}
		if err := j2.write(next, false); err != nil {
			t.Fatalf("%s: write over a stale temp file: %v", name, err)
		}
		if _, got, _ := reopen(t, dir); !reflect.DeepEqual(got, next) {
			t.Fatalf("%s: state after the next write %+v, want %+v", name, got, next)
		}
		if err := j2.write(first, false); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalWriteAfterFailure: the first write failure is sticky — the
// file holds the state before the transition that was lost, so nothing
// later is recorded over it, even once the cause is gone.
func TestJournalWriteAfterFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	j, _, _ := reopen(t, dir)
	if err := j.write(journalTestSnap(), false); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := os.RemoveAll(dir); err != nil { // the next temp file cannot be created
		t.Fatal(err)
	}
	if err := j.write(journalTestSnap(), false); err == nil {
		t.Fatal("write into a removed directory succeeded")
	}
	if !j.failed {
		t.Fatal("journal not marked failed")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.write(journalTestSnap(), false); err == nil {
		t.Fatal("write after a failure succeeded")
	}
	if _, err := os.Stat(j.path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused write left a journal file behind (stat err %v)", err)
	}
	if err := (&journal{path: j.path}).write(journalSnap{incs: make([]int, maxJournalSlots+1)}, false); err == nil {
		t.Fatal("a snapshot of more slots than the format carries was written")
	}
}
