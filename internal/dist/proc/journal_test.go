package proc

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// journalTestRecords is one record of every kind, with representative
// payloads — shared by the round-trip test and the fuzz seed corpus.
func journalTestRecords() []journalRecord {
	return []journalRecord{
		{kind: jrEpoch, epoch: 3},
		{kind: jrAddr, addr: "127.0.0.1:43117"},
		{kind: jrAdmit, slot: 2, inc: 5},
		{kind: jrGone, slot: 2},
		{kind: jrPark},
		{kind: jrPromote, slot: 1},
		{kind: jrJobStart, job: 7},
		{kind: jrJobDone, job: 7},
		{kind: jrSnapshot, snap: journalSnap{
			epoch: 4, nextJob: 8, inFlight: -1, addr: "10.0.0.2:9000",
			incs: []int64{3, 1, 6}, members: []bool{true, false, true},
		}},
	}
}

// TestJournalRoundTrip: every record kind encodes and decodes losslessly,
// replay reconstructs the folded state, a reopened journal resumes where
// the last one stopped, a torn tail is truncated away, and compaction
// folds the log into a snapshot that replays to the same state.
func TestJournalRoundTrip(t *testing.T) {
	// Per-record codec round trip, and the byte fixpoint.
	for _, rec := range journalTestRecords() {
		b := appendJournalRecord(nil, rec)
		got, n, err := decodeJournalRecord(b)
		if err != nil {
			t.Fatalf("kind %d: decode: %v", rec.kind, err)
		}
		if n != len(b) {
			t.Fatalf("kind %d: consumed %d of %d bytes", rec.kind, n, len(b))
		}
		if re := appendJournalRecord(nil, got); !bytes.Equal(re, b) {
			t.Fatalf("kind %d: decode→encode is not a fixpoint", rec.kind)
		}
	}

	// A journal written through the file layer replays to the expected
	// state across a close and reopen.
	dir := t.TempDir()
	j, st, err := openJournal(dir)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	if st.records != 0 {
		t.Fatalf("fresh journal replayed %d records", st.records)
	}
	writes := []journalRecord{
		{kind: jrEpoch, epoch: 1},
		{kind: jrAddr, addr: "127.0.0.1:50000"},
		{kind: jrAdmit, slot: 0, inc: 0},
		{kind: jrAdmit, slot: 1, inc: 0},
		{kind: jrJobStart, job: 0},
		{kind: jrJobDone, job: 0},
		{kind: jrGone, slot: 1},
		{kind: jrAdmit, slot: 1, inc: 1},
		{kind: jrJobStart, job: 1},
	}
	for _, rec := range writes {
		if err := j.append(rec); err != nil {
			t.Fatalf("append kind %d: %v", rec.kind, err)
		}
	}
	if err := j.sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := j.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	check := func(t *testing.T, st *journalState, records int) {
		t.Helper()
		if st.epoch != 1 || st.addr != "127.0.0.1:50000" {
			t.Errorf("epoch/addr = %d/%q", st.epoch, st.addr)
		}
		if st.nextJob != 2 || st.inFlight != 1 {
			t.Errorf("nextJob/inFlight = %d/%d, want 2/1", st.nextJob, st.inFlight)
		}
		if len(st.incs) != 2 || st.incs[0] != 1 || st.incs[1] != 2 {
			t.Errorf("incs = %v, want [1 2]", st.incs)
		}
		if !st.members[0] || !st.members[1] {
			t.Errorf("members = %v, want both true", st.members)
		}
		if st.records != records {
			t.Errorf("records = %d, want %d", st.records, records)
		}
	}
	j2, st, err := openJournal(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	check(t, st, len(writes))

	// Compaction folds the same state into one snapshot record.
	snap := journalSnap{
		epoch: st.epoch, nextJob: int64(st.nextJob), inFlight: int64(st.inFlight),
		addr: st.addr, incs: []int64{1, 2}, members: []bool{true, true},
	}
	if err := j2.compact(snap); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := j2.close(); err != nil {
		t.Fatalf("close after compact: %v", err)
	}
	j3, st, err := openJournal(dir)
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	check(t, st, 1)

	// Appends after compaction land on the snapshot cleanly.
	if err := j3.append(journalRecord{kind: jrJobDone, job: 1}); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	j3.close()

	// A torn tail — half an append, the kill -9 signature — is tolerated
	// and truncated back to the last record boundary.
	path := filepath.Join(dir, journalFile)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatalf("tear journal: %v", err)
	}
	j4, st, err := openJournal(dir)
	if err != nil {
		t.Fatalf("reopen torn journal: %v", err)
	}
	j4.close()
	if st.inFlight != 1 {
		t.Errorf("torn tail replay: inFlight = %d, want 1 (jrJobDone was torn off)", st.inFlight)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(full)-appendedLen(journalRecord{kind: jrJobDone, job: 1})) {
		t.Errorf("torn tail not truncated to record boundary")
	}

	// Corruption before the tail (a flipped byte in a complete record) is
	// a hard error, not a silent partial recovery.
	bad := append([]byte(nil), full...)
	bad[journalHeaderLen+journalRecHeaderLen] ^= 0xFF
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatalf("corrupt journal: %v", err)
	}
	if _, _, err := openJournal(dir); err == nil {
		t.Error("mid-file corruption opened without error")
	}

	// A file that is not a journal at all is rejected by name.
	os.WriteFile(path, []byte("definitely not a journal"), 0o644)
	if _, _, err := openJournal(dir); err == nil {
		t.Error("non-journal file opened without error")
	}
}

// TestJournalTornAtEveryByte cuts a multi-record journal (epoch, addr,
// admits, a job, a compaction snapshot, more of each) at every prefix
// length — a crash can stop a write anywhere. openJournal must yield
// exactly the state folded from the records complete before the cut and
// truncate the file back to that record boundary: a fresh journal at
// length 0, the not-a-journal error inside the file header, never a
// panic and never a state that includes a partial record.
func TestJournalTornAtEveryByte(t *testing.T) {
	recs := []journalRecord{
		{kind: jrEpoch, epoch: 1},
		{kind: jrAddr, addr: "127.0.0.1:50000"},
		{kind: jrAdmit, slot: 0, inc: 0},
		{kind: jrAdmit, slot: 1, inc: 0},
		{kind: jrJobStart, job: 0},
		{kind: jrJobDone, job: 0},
		{kind: jrSnapshot, snap: journalSnap{
			epoch: 1, nextJob: 1, inFlight: -1, addr: "127.0.0.1:50000",
			incs: []int64{1, 1}, members: []bool{true, true},
		}},
		{kind: jrGone, slot: 1},
		{kind: jrAdmit, slot: 1, inc: 1},
		{kind: jrJobStart, job: 1},
	}
	full := journalHeader()
	ends := []int{len(full)} // ends[i]: the file length once i records are complete
	for _, rec := range recs {
		full = appendJournalRecord(full, rec)
		ends = append(ends, len(full))
	}
	dir := t.TempDir()
	path := filepath.Join(dir, journalFile)
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, st, err := openJournal(dir)
		if cut > 0 && cut < journalHeaderLen {
			if err == nil || !strings.Contains(err.Error(), "not a supervisor journal") {
				t.Fatalf("cut at %d, inside the header: err = %v", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		j.close()
		complete := max(sort.SearchInts(ends, cut+1)-1, 0)
		want := newJournalState()
		for _, rec := range recs[:complete] {
			if err := want.apply(rec); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatalf("cut at %d: state %+v, want the fold of the first %d records %+v", cut, *st, complete, *want)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(ends[complete]) {
			t.Fatalf("cut at %d: file left at %d bytes (err %v), want the record boundary %d", cut, fi.Size(), err, ends[complete])
		}
	}
}

func appendedLen(r journalRecord) int {
	return len(appendJournalRecord(nil, r))
}

// FuzzJournalDecode: hostile journal bytes never panic the decoder, and
// every successful decode re-encodes to exactly the bytes consumed.
func FuzzJournalDecode(f *testing.F) {
	for _, rec := range journalTestRecords() {
		f.Add(appendJournalRecord(nil, rec))
	}
	// Structured corruption seeds: truncations, a bit flip, a bogus kind,
	// an oversized length field, and two records back to back.
	base := appendJournalRecord(nil, journalRecord{kind: jrAdmit, slot: 1, inc: 2})
	f.Add(base[:3])
	f.Add(base[:len(base)-1])
	flipped := append([]byte(nil), base...)
	flipped[journalRecHeaderLen] ^= 0x01
	f.Add(flipped)
	f.Add([]byte{0xFF, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{jrEpoch, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(appendJournalRecord(appendJournalRecord(nil, journalRecord{kind: jrPark}), journalRecord{kind: jrGone, slot: 3}))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeJournalRecord(data)
		if err != nil {
			if n != 0 {
				t.Fatalf("decode error consumed %d bytes", n)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if re := appendJournalRecord(nil, rec); !bytes.Equal(re, data[:n]) {
			t.Fatalf("decode→encode not a fixpoint:\n in  %x\n out %x", data[:n], re)
		}
		// The replay layer over the same bytes must also never panic, and
		// must stop cleanly at a torn tail.
		if _, off, err := replayJournal(data); err == nil && off > len(data) {
			t.Fatalf("replay consumed %d of %d bytes", off, len(data))
		}
	})
}

// TestJournalAppendAfterFailure: the first append failure is sticky, so a
// hole in the log can never be followed by records that replay past it.
func TestJournalAppendAfterFailure(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	defer j.close()
	j.f.Close() // force the next write to fail
	if err := j.append(journalRecord{kind: jrPark}); err == nil {
		t.Fatal("append on closed file succeeded")
	}
	if !j.failed {
		t.Fatal("journal not marked failed")
	}
	if err := j.append(journalRecord{kind: jrPark}); err == nil {
		t.Fatal("append after failure succeeded")
	}
	if err := j.sync(); err != nil {
		t.Fatalf("sync after failure should be a no-op, got %v", err)
	}
}

// BenchmarkJournalReplay measures the fixed cost a crashed supervisor
// pays before it can re-bind its address and re-admit workers:
// openJournal — the recovery path NewCluster runs — reading,
// CRC-checking and folding a 4096-record log (a realistic
// admit/lost/job-cycle mix) back into state.
func BenchmarkJournalReplay(b *testing.B) {
	const records, nodes = 4096, 8
	dir := b.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		rec := journalRecord{kind: jrAdmit, slot: int64(i % nodes), inc: int64(i / nodes)}
		switch {
		case i == 0:
			rec = journalRecord{kind: jrEpoch, epoch: 1}
		case i == 1:
			rec = journalRecord{kind: jrAddr, addr: "127.0.0.1:43117"}
		case i%8 == 0:
			rec = journalRecord{kind: jrGone, slot: int64(i % nodes)}
		case i%8 == 1:
			rec = journalRecord{kind: jrPromote, slot: int64(i % nodes)}
		case i%8 == 2:
			rec = journalRecord{kind: jrJobStart, job: int64(i / 8)}
		case i%8 == 3:
			rec = journalRecord{kind: jrJobDone, job: int64(i / 8)}
		case i%8 == 4:
			rec = journalRecord{kind: jrPark}
		}
		if err := j.append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.sync(); err != nil {
		b.Fatal(err)
	}
	if err := j.close(); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		j, st, err := openJournal(dir)
		if err != nil {
			b.Fatal(err)
		}
		j.close()
		if st.records != records {
			b.Fatalf("replayed %d records, want %d", st.records, records)
		}
	}
}
