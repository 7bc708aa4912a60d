package dist

import (
	"errors"
	"testing"
)

// Tests of the exported support surface the multi-process runtime
// builds on, and of Config.Validate.

func TestSplitFrameReassemblerRoundTrip(t *testing.T) {
	payload := make([]byte, 10_000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	f := Frame{Kind: KindGroups, From: 3, To: 1, Seq: 7, Payload: payload}
	chunks := SplitFrame(f, 1024)
	if len(chunks) != 10 {
		t.Fatalf("10000/1024 split into %d chunks, want 10", len(chunks))
	}

	asm := NewReassembler(1<<20, 1024)
	// Deliver out of order: final first, then evens, then odds.
	order := []int{9, 0, 2, 4, 6, 8, 1, 3, 5}
	for _, i := range order {
		if _, complete, fresh, err := asm.Accept(chunks[i]); err != nil || complete || !fresh {
			t.Fatalf("chunk %d: complete=%v fresh=%v err=%v", i, complete, fresh, err)
		}
	}
	if missing := asm.Missing(3, 7); len(missing) != 1 || missing[0] != 7 {
		t.Fatalf("Missing = %v, want [7]", missing)
	}
	msg, complete, fresh, err := asm.Accept(chunks[7])
	if err != nil || !complete || !fresh {
		t.Fatalf("last chunk: complete=%v fresh=%v err=%v", complete, fresh, err)
	}
	if string(msg.Payload) != string(payload) {
		t.Fatal("reassembled payload differs from the original")
	}
	// A retransmission of the completed stream is swallowed.
	if _, complete, fresh, err := asm.Accept(chunks[0]); err != nil || complete || fresh {
		t.Fatalf("post-completion duplicate: complete=%v fresh=%v err=%v", complete, fresh, err)
	}
}

func TestWireErrorRoundTrip(t *testing.T) {
	for _, sentinel := range []error{ErrStraggler, ErrBadFrame, ErrChunkBudget, ErrHandshake} {
		wrapped := errors.Join(errors.New("context"), sentinel)
		got := DecodeErr(2, EncodeErr(wrapped))
		if !errors.Is(got, sentinel) {
			t.Errorf("sentinel %v lost across the wire: %v", sentinel, got)
		}
	}
	plain := DecodeErr(1, EncodeErr(errors.New("boom")))
	if plain == nil || errors.Is(plain, ErrStraggler) {
		t.Errorf("generic error decoded as %v", plain)
	}
	// Supervisor-originated errors name the supervisor, not a node.
	sup := DecodeErr(-1, EncodeErr(ErrHandshake))
	if got := sup.Error(); !errors.Is(sup, ErrHandshake) || got != "dist: supervisor: "+ErrHandshake.Error() {
		t.Errorf("supervisor error = %q (Is(ErrHandshake)=%v)", got, errors.Is(sup, ErrHandshake))
	}
}

func TestFaultPlanActive(t *testing.T) {
	if (FaultPlan{}).Active() {
		t.Error("zero FaultPlan reports active")
	}
	if !(FaultPlan{DropProb: 0.1}).Active() {
		t.Error("dropping plan reports inactive")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero Config: %v", err)
	}
	ok := Config{MaxChunkPayload: 4096, ReassemblyBudget: 1 << 20}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid Config: %v", err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative chunk payload", Config{MaxChunkPayload: -1}},
		{"negative budget", Config{ReassemblyBudget: -9}},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: %v, want ErrConfig", tc.name, err)
		}
	}
	// The operators reject an invalid Config before doing anything.
	if _, err := ReduceConfig([][]float64{{1}}, 1, Config{ChildDeadline: -1}); !errors.Is(err, ErrConfig) {
		t.Errorf("ReduceConfig: %v, want ErrConfig", err)
	}
	if _, err := AggregateByKeyConfig([][]uint32{{1}}, [][]float64{{1}}, 1, Config{MaxChunkPayload: -1}); !errors.Is(err, ErrConfig) {
		t.Errorf("AggregateByKeyConfig: %v, want ErrConfig", err)
	}
}
