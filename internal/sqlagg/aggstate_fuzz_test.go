package sqlagg

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzAggStateDecode drives arbitrary bytes through the AggState view
// of every catalog kind. The contract at the trust boundary: malformed
// bytes are ErrBadState, never a panic; bytes an empty state accepts
// are canonical, so re-encoding reproduces them exactly; and merging
// them into a non-empty state must not panic either.
func FuzzAggStateDecode(f *testing.F) {
	seedSpecs := []AggSpec{
		{Kind: AggSum, Levels: 2},
		{Kind: AggCount},
		{Kind: AggAvg, Levels: 3},
		{Kind: AggVarSamp, Levels: 2},
		{Kind: AggMin},
		{Kind: AggMax},
	}
	for _, sp := range seedSpecs {
		st := mustState(f, sp)
		st.Add(1.5)
		st.Add(-2.25)
		enc, err := st.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 64, 2, 1})

	decodeSpecs := allSpecs(2)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, sp := range decodeSpecs {
			st := mustState(t, sp)
			if err := st.MergeBinary(data); err != nil {
				if !errors.Is(err, ErrBadState) {
					t.Fatalf("%s: untyped decode error: %v", sp.Kind, err)
				}
				continue
			}
			re, err := st.AppendBinary(nil)
			if err != nil || !bytes.Equal(re, data) {
				t.Fatalf("%s: accepted non-canonical encoding (re-encode err %v)", sp.Kind, err)
			}
			_ = st.Value()
			fresh := mustState(t, sp)
			fresh.Add(0.5)
			// Merging into a non-empty state may reject overflow but must not panic.
			_ = fresh.MergeBinary(data)
			_ = fresh.Value()
		}
		// Spec lists cross the same boundary via the job blob.
		if specs, err := DecodeSpecs(data); err == nil {
			re, err := EncodeSpecs(nil, specs)
			if err != nil || !bytes.Equal(re, data) {
				t.Fatal("DecodeSpecs accepted non-canonical spec list")
			}
		}
	})
}

func mustState(tb testing.TB, sp AggSpec) AggState {
	tb.Helper()
	states, err := NewStates([]AggSpec{sp})
	if err != nil {
		tb.Fatal(err)
	}
	return states[0]
}
