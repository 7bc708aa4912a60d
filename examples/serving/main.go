// Serving: the reproducible SQL serving layer — a long-lived query
// server over shared resident data, where bit-reproducibility makes a
// result cache correct by construction and makes the local and
// distributed backends interchangeable byte for byte. The example also
// shows the admission side: a query whose estimated memory exceeds the
// per-query budget is rejected with a typed error before any work
// happens.
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"log"

	"repro"
)

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func main() {
	// Resident data: 1M rows, 4096 groups, two value columns.
	ds, err := repro.NewSyntheticServeDataset(42, 1<<20, 4096, 2, repro.ServeDatasetOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resident: %d rows × %d cols, version %016x, %d distinct keys\n\n",
		ds.Rows(), ds.Cols(), ds.Version(), ds.DistinctBound())

	query := repro.GroupByQuery(
		repro.AggSpec{Kind: repro.AggSum, Col: 0},
		repro.AggSpec{Kind: repro.AggAvg, Col: 1},
		repro.AggSpec{Kind: repro.AggCount},
	)

	// The same query on two servers — local engine vs distributed
	// cluster — and on cold vs warm caches. Four answers, one digest.
	local, err := repro.NewServer(ds, repro.ServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer local.Close()
	cluster, err := repro.NewServer(ds, repro.ServerOptions{Distributed: true})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	fmt.Println("backend   cache  result digest")
	var ref []byte
	for _, srv := range []struct {
		name string
		s    *repro.Server
	}{{"local", local}, {"cluster", cluster}} {
		for i := 0; i < 2; i++ {
			r, err := srv.s.Do(query)
			if err != nil {
				log.Fatal(err)
			}
			temp := "cold"
			if r.CacheHit {
				temp = "warm"
			}
			fmt.Printf("%-9s %-6s %016x\n", srv.name, temp, digest(r.Bytes))
			if ref == nil {
				ref = r.Bytes
			} else if !bytes.Equal(ref, r.Bytes) {
				log.Fatal("result bytes diverged — reproducibility broken")
			}
		}
	}
	fmt.Println("\nall four answers byte-identical: the cache and the backend are unobservable")

	// Admission: a tiny budget rejects the query before execution.
	stingy, err := repro.NewServer(ds, repro.ServerOptions{MemoryBudget: 1024})
	if err != nil {
		log.Fatal(err)
	}
	defer stingy.Close()
	if _, err := stingy.Do(query); errors.Is(err, repro.ErrOverBudget) {
		fmt.Printf("\n1 KiB budget: %v\n", err)
	} else {
		log.Fatalf("expected ErrOverBudget, got %v", err)
	}

	st := local.Stats()
	fmt.Printf("\nlocal server stats: served=%d hits=%d misses=%d peak_inflight=%d\n",
		st.Served, st.CacheHits, st.CacheMisses, st.PeakInflight)
}
