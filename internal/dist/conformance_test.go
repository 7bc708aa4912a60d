package dist

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"
)

// Conformance of the message plane, without spawning processes: every
// arrangement of it — in-process inboxes, n endpoints behind one
// TCPTransport, and n standalone endpoints wired by an address table
// the way worker processes are — must pass the same rows. Rows that
// need sockets (misrouting, sever-and-redial, peer re-pointing) skip
// the chan arrangement.

const meshNodes = 4

// fabric is one arrangement under test: a cluster-wide Transport view
// plus, for the socket arrangements, the per-node endpoints.
type fabric struct {
	Transport
	eps []*Endpoint
}

// mesh routes a cluster-wide Transport view onto standalone endpoints:
// Send by Frame.From, Recv by id — what n worker processes do between
// them.
type mesh []*Endpoint

func (m mesh) Nodes() int         { return len(m) }
func (m mesh) Send(f Frame) error { return m[f.From].Send(f) }
func (m mesh) Recv(id int, d time.Duration) (Frame, error) {
	if id < 0 || id >= len(m) {
		return Frame{}, fmt.Errorf("no node %d", id)
	}
	return m[id].Recv(id, d)
}
func (m mesh) Close() error {
	for _, e := range m {
		e.Close()
	}
	return nil
}

var arrangements = map[string]func(t *testing.T) fabric{
	"chan": func(*testing.T) fabric { return fabric{Transport: NewChanTransport(meshNodes)} },
	"tcp": func(t *testing.T) fabric {
		tr, err := NewTCPTransport(meshNodes)
		if err != nil {
			t.Fatal(err)
		}
		return fabric{tr, tr.eps}
	},
	"endpoints": func(t *testing.T) fabric {
		m := make(mesh, meshNodes)
		for id := range m {
			e, err := ListenEndpoint(id, meshNodes, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			m[id] = e
		}
		for _, e := range m {
			for id, peer := range m {
				e.UpdatePeer(id, peer.Addr())
			}
		}
		return fabric{m, m}
	},
}

func data(from, to int, seq uint32, payload string) Frame {
	return Frame{Kind: KindGroups, From: from, To: to, Seq: seq, Chunks: 1, Payload: []byte(payload)}
}

func mustRecv(t *testing.T, tr Transport, id int) Frame {
	t.Helper()
	f, err := tr.Recv(id, 5*time.Second)
	if err != nil {
		t.Fatalf("recv on node %d: %v", id, err)
	}
	return f
}

func wantEmpty(t *testing.T, tr Transport, id int) {
	t.Helper()
	if f, err := tr.Recv(id, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("node %d inbox: got %+v, %v; want ErrTimeout", id, f, err)
	}
}

// sendUntilDelivered retries a send until the frame arrives: the first
// attempts after a connection broke may fail (or vanish with the dead
// socket) while the failure is detected and the pipe dropped.
func sendUntilDelivered(t *testing.T, send func() error, recv func() error) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if send() == nil && recv() == nil {
			return
		}
	}
	t.Fatal("send never recovered over a re-dialed connection")
}

var conformanceRows = []struct {
	name    string
	sockets bool // needs endpoints
	run     func(t *testing.T, fab fabric)
}{
	{"ordered delivery per pair", false, func(t *testing.T, fab fabric) {
		if fab.Nodes() != meshNodes {
			t.Fatalf("Nodes() = %d, want %d", fab.Nodes(), meshNodes)
		}
		const k = 64
		for i := 0; i < k; i++ {
			if err := fab.Send(data(2, 1, uint32(i), fmt.Sprint("payload-", i))); err != nil {
				t.Fatal(err)
			}
		}
		// Payloads are retained across later arrivals: a reused read
		// buffer must not clobber them.
		got := make([]Frame, k)
		for i := range got {
			got[i] = mustRecv(t, fab, 1)
		}
		for i, f := range got {
			if f.Kind != KindGroups || f.From != 2 || f.Seq != uint32(i) || string(f.Payload) != fmt.Sprint("payload-", i) {
				t.Fatalf("arrival %d: %+v", i, f)
			}
		}
		wantEmpty(t, fab, 3)
		if err := fab.Send(Frame{To: 99}); err == nil {
			t.Fatal("send to out-of-range node accepted")
		}
		if _, err := fab.Recv(-1, time.Millisecond); err == nil {
			t.Fatal("recv on out-of-range node accepted")
		}
	}},
	{"Send keeps per-(from, to) order", false, func(t *testing.T, fab fabric) {
		var fs []Frame
		for i := 0; i < 5; i++ {
			fs = append(fs, Frame{Kind: KindGroups, From: 0, To: 1, Seq: 0,
				Chunk: uint32(i), Chunks: 5, Payload: bytes.Repeat([]byte{byte(i + 1)}, 8)})
		}
		fs = append(fs, data(0, 2, 1, "two"), data(0, 0, 1, "self"), data(1, 2, 1, "also two"), data(0, 2, 2, "two again"))
		// Per (from, to) pair the arrival sequence must equal the send
		// sequence; pairs may interleave.
		hop := func(perPair map[[2]int]string, f Frame) {
			perPair[[2]int{f.From, f.To}] += fmt.Sprintf(" seq %d chunk %d/%d %q;", f.Seq, f.Chunk, f.Chunks, f.Payload)
		}
		sent := map[[2]int]string{}
		for _, f := range fs {
			hop(sent, f)
			if err := fab.Send(f); err != nil {
				t.Fatal(err)
			}
		}
		arrived := map[[2]int]string{}
		for _, to := range []struct{ id, n int }{{1, 5}, {2, 3}, {0, 1}} {
			for i := 0; i < to.n; i++ {
				f := mustRecv(t, fab, to.id)
				f.To = to.id
				hop(arrived, f)
			}
		}
		if got, want := fmt.Sprint(arrived), fmt.Sprint(sent); got != want {
			t.Fatalf("arrivals:\n%s\nsends:\n%s", got, want)
		}
	}},
	{"misrouted frame dropped", true, func(t *testing.T, fab fabric) {
		c, err := net.Dial("tcp", fab.eps[1].Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, f := range []Frame{data(0, 2, 0, "not for node 1"), data(0, 1, 1, "for node 1")} {
			if err := WriteFrame(c, f); err != nil {
				t.Fatal(err)
			}
		}
		if f := mustRecv(t, fab, 1); f.Seq != 1 {
			t.Fatalf("node 1 accepted the misrouted frame: %+v", f)
		}
		wantEmpty(t, fab, 1)
		wantEmpty(t, fab, 2)
	}},
	{"self-addressed frame stays off the wire", false, func(t *testing.T, fab fabric) {
		wire := ReadWireStats()
		var peerOut uint64
		if fab.eps != nil {
			peerOut = fab.eps[1].peers.framesOut[1].Value()
		}
		sent := data(1, 1, 0, "to myself")
		if err := fab.Send(sent); err != nil {
			t.Fatal(err)
		}
		if got := mustRecv(t, fab, 1); &got.Payload[0] != &sent.Payload[0] {
			t.Fatal("self-addressed payload was copied, not delivered by reference")
		}
		after := ReadWireStats()
		after.ChanFrames = wire.ChanFrames // by-reference deliveries count there
		if after != wire {
			t.Fatalf("wire counters moved: %+v → %+v", wire, after)
		}
		if fab.eps != nil && fab.eps[1].peers.framesOut[1].Value() != peerOut {
			t.Fatal("per-peer counter moved for a self-addressed frame")
		}
	}},
	{"write after a severed connection re-dials", true, func(t *testing.T, fab fabric) {
		f := data(1, 0, 0, "partial")
		if err := fab.Send(f); err != nil {
			t.Fatal(err)
		}
		mustRecv(t, fab, 0)
		fab.eps[1].Sever()
		sendUntilDelivered(t, func() error { return fab.Send(f) }, func() error {
			_, err := fab.Recv(0, 100*time.Millisecond)
			return err
		})
	}},
	{"UpdatePeer redirects the next send", true, func(t *testing.T, fab fabric) {
		if err := fab.Send(data(1, 0, 0, "to the original")); err != nil {
			t.Fatal(err)
		}
		mustRecv(t, fab, 0)
		repl, err := ListenEndpoint(0, meshNodes, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer repl.Close()
		fab.eps[1].UpdatePeer(0, repl.Addr())
		if err := fab.Send(data(1, 0, 1, "to the replacement")); err != nil {
			t.Fatal(err)
		}
		if f := mustRecv(t, repl, 0); f.Seq != 1 {
			t.Fatalf("replacement got %+v", f)
		}
		wantEmpty(t, fab, 0)
	}},
	{"every call after Close returns ErrClosed", false, func(t *testing.T, fab fabric) {
		unblocked := make(chan error, 1)
		go func() {
			_, err := fab.Recv(0, 0)
			unblocked <- err
		}()
		time.Sleep(5 * time.Millisecond)
		// A frame still queued at Close must not outlive it.
		if err := fab.Send(data(2, 3, 0, "queued")); err != nil {
			t.Fatal(err)
		}
		if err := fab.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		select {
		case err := <-unblocked:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("blocked Recv: got %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Close did not unblock Recv")
		}
		if err := fab.Send(data(1, 0, 0, "late")); !errors.Is(err, ErrClosed) {
			t.Fatalf("Send after Close: got %v, want ErrClosed", err)
		}
		if err := fab.Send(data(1, 1, 0, "late, to myself")); !errors.Is(err, ErrClosed) {
			t.Fatalf("self-addressed Send after Close: got %v, want ErrClosed", err)
		}
		if _, err := fab.Recv(3, time.Second); !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv after Close: got %v, want ErrClosed", err)
		}
	}},
}

// TestMessagePlaneConformance runs every row on every arrangement. Each
// cell builds a fresh fabric and closes it twice (Close is idempotent),
// and no cell may leak a goroutine past Close.
func TestMessagePlaneConformance(t *testing.T) {
	for aname, build := range arrangements {
		for _, row := range conformanceRows {
			t.Run(aname+"/"+row.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				fab := build(t)
				if row.sockets && fab.eps == nil {
					fab.Close()
					t.Skip("row needs socket endpoints")
				}
				row.run(t, fab)
				for i := 0; i < 2; i++ {
					if err := fab.Close(); err != nil {
						t.Fatalf("Close #%d: %v", i+1, err)
					}
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines before, %d after Close", before, runtime.NumGoroutine())
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
