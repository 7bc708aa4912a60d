package dist

import (
	"bytes"
	"testing"
	"time"
)

// Tests of the payload-ownership handoff rule of the socket read path:
// ReadFrameBuf payloads alias the caller's read buffer, so anything
// that retains a payload past the next read must copy it first
// (copy-on-retain), and the TCP read loop enforces the rule at the
// mailbox boundary.

// TestReadFrameBufOwnership reads frames through one reused buffer,
// mutates the read buffer after decode, and asserts that (a) the
// decoded payload aliases the buffer — the hazard the rule exists for —
// and (b) a payload retained per the rule (RetainPayload) is unaffected
// by both the mutation and the next read.
func TestReadFrameBufOwnership(t *testing.T) {
	p1 := bytes.Repeat([]byte{0xAA}, 1024)
	p2 := bytes.Repeat([]byte{0x55}, 1024)
	var stream []byte
	stream = AppendFrame(stream, Frame{Kind: KindGroups, From: 0, To: 1, Seq: 7, Chunks: 1, Payload: p1})
	stream = AppendFrame(stream, Frame{Kind: KindGroups, From: 0, To: 1, Seq: 8, Chunks: 1, Payload: p2})
	r := bytes.NewReader(stream)

	f1, buf, err := ReadFrameBuf(r, nil)
	if err != nil {
		t.Fatalf("first ReadFrameBuf: %v", err)
	}
	if !bytes.Equal(f1.Payload, p1) {
		t.Fatal("first frame decoded with wrong payload")
	}
	retained := retainPayload(f1)

	// Mutate the read buffer after decode: the un-retained payload must
	// follow the buffer (it aliases it)...
	for i := range buf {
		buf[i] ^= 0xFF
	}
	if bytes.Equal(f1.Payload, p1) {
		t.Fatal("decoded payload did not alias the read buffer — the reuse fast path is gone")
	}
	// ...while the retained copy is unaffected.
	if !bytes.Equal(retained.Payload, p1) {
		t.Fatal("retained payload was corrupted by a read-buffer mutation")
	}
	for i := range buf {
		buf[i] ^= 0xFF // restore for the next read's CRC-free reuse
	}

	// The next read overwrites the buffer in place; the retained copy
	// must survive that too.
	f2, buf2, err := ReadFrameBuf(r, buf)
	if err != nil {
		t.Fatalf("second ReadFrameBuf: %v", err)
	}
	if &buf2[0] != &buf[0] {
		t.Fatal("equal-size frame read did not reuse the buffer")
	}
	if !bytes.Equal(f2.Payload, p2) {
		t.Fatal("second frame decoded with wrong payload")
	}
	if !bytes.Equal(retained.Payload, p1) {
		t.Fatal("retained payload was overwritten by the next frame read")
	}

	// Growth path: a larger frame must still round-trip when the buffer
	// is too small for it.
	big := bytes.Repeat([]byte{0x3C}, 4096)
	r2 := bytes.NewReader(EncodeFrame(Frame{Kind: KindGroups, From: 2, To: 3, Seq: 9, Chunks: 1, Payload: big}))
	f3, _, err := ReadFrameBuf(r2, buf2)
	if err != nil {
		t.Fatalf("growing ReadFrameBuf: %v", err)
	}
	if !bytes.Equal(f3.Payload, big) {
		t.Fatal("grown frame decoded with wrong payload")
	}
}

// TestTCPReadPathRetainsPayloads sends a stream of same-size frames
// through one TCP connection pair — so the receiving read loop reuses
// one read buffer for all of them — receives and retains every payload,
// and asserts none was clobbered by a later frame's arrival. Without
// copy-on-retain at the mailbox boundary, frame k+1 overwrites frame
// k's payload bytes in place.
func TestTCPReadPathRetainsPayloads(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatalf("NewTCPTransport: %v", err)
	}
	defer tr.Close()

	const frames = 64
	const size = 512
	want := make([][]byte, frames)
	for i := range want {
		p := bytes.Repeat([]byte{byte(i + 1)}, size)
		want[i] = p
		if err := tr.Send(Frame{Kind: KindGroups, From: 0, To: 1, Seq: uint32(i), Chunks: 1, Payload: p}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	got := make(map[uint32][]byte, frames)
	for len(got) < frames {
		f, err := tr.Recv(1, 5*time.Second)
		if err != nil {
			t.Fatalf("recv after %d frames: %v", len(got), err)
		}
		got[f.Seq] = f.Payload // retained across later arrivals
	}
	for i := 0; i < frames; i++ {
		p, ok := got[uint32(i)]
		if !ok {
			t.Fatalf("frame %d never arrived", i)
		}
		if !bytes.Equal(p, want[i]) {
			t.Fatalf("retained payload of frame %d was clobbered by a later frame (first byte %#x, want %#x)",
				i, p[0], want[i][0])
		}
	}
}

// TestRetainPayloadEmpty: payload-free frames take the copy-free path
// and stay payload-free.
func TestRetainPayloadEmpty(t *testing.T) {
	f := retainPayload(Frame{Kind: KindResend, From: 1, To: 0, Seq: 3})
	if f.Payload != nil {
		t.Fatalf("RetainPayload invented a payload: %v", f.Payload)
	}
	if f.Kind != KindResend || f.From != 1 || f.To != 0 || f.Seq != 3 {
		t.Fatal("RetainPayload changed frame fields")
	}
}
