package rsum

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/floatbits"
)

// Binary encodings of summation states. A database engine needs to ship
// partial aggregates between operators, workers, and nodes; the encoding
// is canonical (the state is normalized by carry propagation first), so
// two states that represent the same multiset of inputs marshal to the
// same bytes regardless of how the inputs were distributed.

const (
	stateVersion  = 1
	kindState64   = 64
	kindState32   = 32
	headerSize    = 1 + 1 + 1 + 1 + 4 + 4 + 4 + 4 // version, kind, levels, flags, nan, posInf, negInf, eTop
	flagInit      = 1
	levelSize64   = 8 + 8
	levelSize32   = 4 + 8
	marshalSize64 = headerSize + MaxLevels*levelSize64
)

// EncodedSize returns the exact byte length of the state's canonical
// encoding (the length MarshalBinary and AppendBinary produce). It is a
// pure function of the level count, so senders can pre-size frame
// buffers without encoding twice.
func (s *State64) EncodedSize() int { return headerSize + int(s.levels)*levelSize64 }

// EncodedSize returns the exact byte length of the state's canonical
// encoding; see State64.EncodedSize.
func (s *State32) EncodedSize() int { return headerSize + int(s.levels)*levelSize32 }

// appendHeader appends the encoding's header (kind and m) and room for
// its levels (levelSize bytes each) to dst, returning the extended
// slice and the levels' bytes.
func (m *meta) appendHeader(dst []byte, kind byte, levelSize int) (out, levels []byte) {
	need := headerSize + int(m.levels)*levelSize
	off := len(dst)
	dst = append(dst, make([]byte, need)...) // recognized append+make: grows in place, no temp slice
	buf := dst[off : off+need]
	buf[0] = stateVersion
	buf[1] = kind
	buf[2] = byte(m.levels)
	if m.init {
		buf[3] = flagInit
	}
	binary.LittleEndian.PutUint32(buf[4:], m.nan)
	binary.LittleEndian.PutUint32(buf[8:], m.posInf)
	binary.LittleEndian.PutUint32(buf[12:], m.negInf)
	binary.LittleEndian.PutUint32(buf[16:], uint32(m.eTop))
	return dst, buf[headerSize:]
}

// parseHeader validates the header of an encoding of the given kind
// (version, kind, level count, flags), reads it into m, and returns the
// encoding's total length.
func (m *meta) parseHeader(data []byte, kind byte, levelSize int) (n int, err error) {
	if len(data) < headerSize {
		return 0, errCorrupt
	}
	if data[0] != stateVersion {
		return 0, fmt.Errorf("rsum: unsupported state version %d", data[0])
	}
	if data[1] != kind {
		return 0, fmt.Errorf("rsum: expected State%d encoding, got kind %d", kind, data[1])
	}
	levels := int(data[2])
	if levels < 1 || levels > MaxLevels {
		return 0, errCorrupt
	}
	if data[3]&^flagInit != 0 {
		return 0, errCorrupt // unknown flag bits: encoding is canonical
	}
	m.levels = int8(levels)
	m.init = data[3]&flagInit != 0
	m.nan = binary.LittleEndian.Uint32(data[4:])
	m.posInf = binary.LittleEndian.Uint32(data[8:])
	m.negInf = binary.LittleEndian.Uint32(data[12:])
	m.eTop = int32(binary.LittleEndian.Uint32(data[16:]))
	return headerSize + levels*levelSize, nil
}

// AppendBinary implements encoding.BinaryAppender: it appends the
// canonical encoding of s to dst and returns the extended slice. The
// bytes are identical to MarshalBinary's, but when dst has sufficient
// capacity no allocation occurs — this is the hot-path encoder of the
// distributed shuffle, where per-key partial states encode directly
// into the destination frame buffer instead of marshal-then-copy.
func (s *State64) AppendBinary(dst []byte) ([]byte, error) {
	t := *s
	if t.init {
		t.propagate()
	}
	dst, buf := t.appendHeader(dst, kindState64, levelSize64)
	for l := 0; l < int(t.levels); l++ {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(t.s[l]))
		binary.LittleEndian.PutUint64(buf[8:], uint64(t.c[l]))
		buf = buf[levelSize64:]
	}
	return dst, nil
}

// AppendBinary implements encoding.BinaryAppender; see State64.
func (s *State32) AppendBinary(dst []byte) ([]byte, error) {
	t := *s
	if t.init {
		t.propagate()
	}
	dst, buf := t.appendHeader(dst, kindState32, levelSize32)
	for l := 0; l < int(t.levels); l++ {
		binary.LittleEndian.PutUint32(buf, math.Float32bits(t.s[l]))
		binary.LittleEndian.PutUint64(buf[4:], uint64(t.c[l]))
		buf = buf[levelSize32:]
	}
	return dst, nil
}

var errCorrupt = errors.New("rsum: corrupt state encoding")

// MarshalBinary implements encoding.BinaryMarshaler. The encoding is
// canonical: states that Equal() each other marshal identically.
func (s *State64) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, s.EncodedSize()))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *State64) UnmarshalBinary(data []byte) error {
	var t State64
	n, err := t.parseHeader(data, kindState64, levelSize64)
	if err != nil {
		return err
	}
	if len(data) != n {
		return errCorrupt
	}
	off := headerSize
	for l := 0; l < int(t.levels); l++ {
		t.s[l] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		t.c[l] = int64(binary.LittleEndian.Uint64(data[off+8:]))
		off += levelSize64
	}
	if err := t.validate(); err != nil {
		return err
	}
	*s = t
	return nil
}

// MergeBinary decodes a canonical State64 encoding and merges it into s.
// It is the wire-facing counterpart of Merge for systems that ship
// partial aggregates between processes: the sender marshals its state,
// the receiver folds the bytes straight into its own accumulator.
// Unlike Merge, a level-count mismatch is reported as an error rather
// than a panic, since the encoding crosses a trust boundary.
func (s *State64) MergeBinary(data []byte) error {
	var o State64
	if err := o.UnmarshalBinary(data); err != nil {
		return err
	}
	if o.levels != s.levels {
		return fmt.Errorf("rsum: cannot merge L=%d encoding into L=%d state", o.levels, s.levels)
	}
	s.Merge(&o)
	return nil
}

// validate rejects decoded states that violate the structural
// invariants; accepting them would let corrupt (or adversarial) bytes
// break the exactness arguments or panic later operations.
func (t *State64) validate() error {
	if !t.init {
		// An empty sum has one encoding: no level carries any bits (not
		// even a −0), or decode → encode would not be a fixpoint for
		// receivers that merge the bytes instead of adopting them.
		if t.eTop != 0 {
			return errCorrupt
		}
		for l := range t.s {
			if math.Float64bits(t.s[l]) != 0 || t.c[l] != 0 {
				return errCorrupt
			}
		}
		return nil
	}
	e := int(t.eTop)
	if e%floatbits.W64 != 0 || e < floatbits.MinLevelExp64 || e > floatbits.MaxLevelExp64 {
		return errCorrupt
	}
	for l := 0; l < int(t.levels); l++ {
		le := t.levelExp(l)
		if le < LowestLevelExp64 {
			if t.s[l] != 0 || t.c[l] != 0 {
				return errCorrupt // dead levels must be empty
			}
			continue
		}
		ufp := floatbits.Pow2_64(le)
		// Canonical (propagated) running sums sit in the carry-free
		// window [1.5, 1.75)·ufp, so decoding then re-encoding is a
		// byte-level fixpoint.
		if !(t.s[l] >= 1.5*ufp && t.s[l] < 1.75*ufp) {
			return errCorrupt
		}
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler; see State64.
func (s *State32) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, s.EncodedSize()))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *State32) UnmarshalBinary(data []byte) error {
	var t State32
	n, err := t.parseHeader(data, kindState32, levelSize32)
	if err != nil {
		return err
	}
	if len(data) != n {
		return errCorrupt
	}
	off := headerSize
	for l := 0; l < int(t.levels); l++ {
		t.s[l] = math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
		t.c[l] = int64(binary.LittleEndian.Uint64(data[off+4:]))
		off += levelSize32
	}
	if err := t.validate(); err != nil {
		return err
	}
	*s = t
	return nil
}

// validate mirrors State64.validate for single precision.
func (t *State32) validate() error {
	if !t.init {
		if t.eTop != 0 {
			return errCorrupt
		}
		for l := range t.s {
			if math.Float32bits(t.s[l]) != 0 || t.c[l] != 0 {
				return errCorrupt // an empty sum has one encoding
			}
		}
		return nil
	}
	e := int(t.eTop)
	if e%floatbits.W32 != 0 || e < floatbits.MinLevelExp32 || e > floatbits.MaxLevelExp32 {
		return errCorrupt
	}
	for l := 0; l < int(t.levels); l++ {
		le := t.levelExp(l)
		if le < LowestLevelExp32 {
			if t.s[l] != 0 || t.c[l] != 0 {
				return errCorrupt
			}
			continue
		}
		ufp := floatbits.Pow2_32(le)
		if !(t.s[l] >= 1.5*ufp && t.s[l] < 1.75*ufp) {
			return errCorrupt
		}
	}
	return nil
}
