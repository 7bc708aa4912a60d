package proc

import (
	"fmt"
	"net"
	"runtime"
	"testing"

	"repro/internal/dist"
)

// BenchmarkDispatch is the sizing command of the rows stream
// (go test -run '^$' -bench Dispatch ./internal/dist/proc).
//
// cols=N/rows is a whole job with its dispatch: 2^20 rows × N columns
// into 2^16 groups, streamed from RowShards on an in-process 2-node
// cluster. It reports ms/op and MB-alloc/op for the whole process —
// supervisor and both workers — and dispatch-MB/s, the dispatched
// bytes over the op.
//
// chunk=SIZE re-derives rowChunkBytes: node 0's rows of the 5-column
// job through a loopback control connection into a sink, cut at SIZE.
// Small chunks pay per-frame costs (a write, a read, a header, a lock),
// large ones fall out of L2 between encode, checksum and copy; the
// constant sits on the flat part in between.
func BenchmarkDispatch(b *testing.B) {
	const rows = 1 << 20
	for _, ncols := range []int{1, 5} {
		job, dispatched := colsJob(b, rows, ncols, 1<<16)
		b.Run(fmt.Sprintf("cols=%d/rows", ncols), func(b *testing.B) {
			c := inProcessCluster(b, 2, dist.Config{})
			if _, err := c.Run(job); err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(job); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			perOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(perOp*1e3, "ms/op")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/1e6, "MB-alloc/op")
			b.ReportMetric(float64(dispatched)/1e6/perOp, "dispatch-MB/s")
		})
		if ncols == 5 {
			for _, size := range []int{16 << 10, 64 << 10, rowChunkBytes, 1 << 20, 4 << 20} {
				b.Run(fmt.Sprintf("chunk=%dK", size>>10), func(b *testing.B) { benchChunkSize(b, job, size) })
			}
		}
	}
}

// benchChunkSize streams node 0's rows of job over a loopback control
// connection, cut into chunks of size bytes, into a fresh sink per op.
func benchChunkSize(b *testing.B, job Job, size int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	out, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer out.Close()
	in, err := ln.Accept()
	if err != nil {
		b.Fatal(err)
	}
	defer in.Close()
	w, r := newCtlConn(out, 0), newCtlConn(in, 0)

	rs, err := newRunState(evRun{job: job}, 0, 2)
	if err != nil {
		b.Fatal(err)
	}
	wire, err := rs.payloadFor(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	js, err := decodeJobSpec(wire)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(js.rows) * int64(4+8*js.ncols))
	sent := make(chan error, 1)
	buf := make([]byte, 0, rowChunkHdr+size)
	for i := 0; i < b.N; i++ {
		go func() {
			st := rs.rowStream(0, 0)
			f := dist.Frame{Kind: dist.KindRows}
			f.Chunks, _ = st.size(size)
			for {
				var ok bool
				if f.Payload, ok = st.next(buf, size); !ok {
					sent <- nil
					return
				}
				if err := w.send(f); err != nil {
					sent <- err
					return
				}
				f.Chunk++
			}
		}()
		sink, err := newRowSink(js, ctlBudget, nil)
		if err != nil {
			b.Fatal(err)
		}
		for !sink.complete() {
			f, err := r.read()
			if err == nil {
				err = sink.accept(f)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := <-sent; err != nil {
			b.Fatal(err)
		}
	}
}
