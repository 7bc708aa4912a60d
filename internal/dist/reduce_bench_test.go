package dist

import (
	"testing"

	"repro/internal/workload"
)

// BenchmarkReduce times one distributed SUM end to end — local folds,
// the exchange and the root's result — on 2 nodes holding 2^19
// MixedMag values each, one worker per node, over in-process channels
// and over loopback TCP:
//
//	go test ./internal/dist -run '^$' -bench Reduce -benchmem
func BenchmarkReduce(b *testing.B) {
	vals := workload.Values64(1, 1<<20, workload.MixedMag)
	shards := [][]float64{vals[:len(vals)/2], vals[len(vals)/2:]}
	for _, tr := range []struct {
		name    string
		factory TransportFactory
	}{{"chan", ChanTransportFactory}, {"tcp", TCPTransportFactory}} {
		b.Run(tr.name, func(b *testing.B) {
			cfg := Config{NewTransport: tr.factory}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReduceConfig(shards, 1, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
