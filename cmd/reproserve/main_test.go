package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist/proc"
	"repro/internal/serve"
	"repro/internal/sqlagg"
	"repro/internal/workload"
)

// TestMain lets a process cluster re-execute this test binary as its
// workers.
func TestMain(m *testing.M) {
	proc.MaybeWorkerMain()
	os.Exit(m.Run())
}

func testServer(t *testing.T, opts serve.Options) *httptest.Server {
	t.Helper()
	ds, err := serve.SyntheticDataset(7, 1<<12, 256, 3, workload.MixedMag, serve.DatasetOptions{Shards: 2})
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	srv, err := serve.NewServer(ds, opts)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	ts := httptest.NewServer(newHandler(srv, opts.Cluster))
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, body
}

type queryResp struct {
	Version  string `json:"data_version"`
	Digest   string `json:"result_digest"`
	CacheHit bool   `json:"cache_hit"`
	Groups   []struct {
		Key  uint32    `json:"key"`
		Aggs []float64 `json:"aggs"`
	} `json:"groups"`
}

// TestConcurrentQueriesIdenticalDigests hammers one query endpoint
// from many goroutines (cold first, then warm) and requires every
// response to carry the same result digest — reproducibility observed
// end to end through the HTTP surface. Run under -race in CI.
func TestConcurrentQueriesIdenticalDigests(t *testing.T) {
	ts := testServer(t, serve.Options{MaxConcurrent: 16, MaxQueue: 256, QueueTimeout: 30 * time.Second})
	const clients = 24
	url := ts.URL + "/query?aggs=SUM(0),COUNT(0),AVG(1),MIN(2),MAX(2)&levels=2"

	digests := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := get(t, url)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, body)
				return
			}
			var qr queryResp
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			digests[i] = qr.Digest
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if digests[i] != digests[0] {
			t.Fatalf("client %d digest %s differs from client 0 digest %s", i, digests[i], digests[0])
		}
	}

	// A warm follow-up must hit the cache with the same digest.
	_, body := get(t, url)
	var qr queryResp
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("warm: %v", err)
	}
	if !qr.CacheHit {
		t.Fatal("warm request missed the cache")
	}
	if qr.Digest != digests[0] {
		t.Fatal("warm digest differs from cold digests")
	}
}

func TestStatusCodeMapping(t *testing.T) {
	ts := testServer(t, serve.Options{MemoryBudget: 64}) // rejects every GROUP BY
	if status, _ := get(t, ts.URL+"/query?aggs=SUM(0)"); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over budget: status %d, want 413", status)
	}
	if status, _ := get(t, ts.URL+"/query?aggs=NOPE(0)"); status != http.StatusBadRequest {
		t.Fatalf("unknown aggregate: status %d, want 400", status)
	}
	if status, _ := get(t, ts.URL+"/query?aggs=SUM(99)"); status != http.StatusBadRequest {
		t.Fatalf("column out of range: status %d, want 400", status)
	}
	if status, _ := get(t, ts.URL+"/window?col=99"); status != http.StatusBadRequest {
		t.Fatalf("window column out of range: status %d, want 400", status)
	}
	if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	if status, _ := get(t, ts.URL+"/stats"); status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
}

func TestWindowEndpoint(t *testing.T) {
	ts := testServer(t, serve.Options{})
	status, body := get(t, ts.URL+"/window?col=1&limit=4")
	if status != http.StatusOK {
		t.Fatalf("window: status %d: %s", status, body)
	}
	var wr struct {
		Rows   int       `json:"rows"`
		Totals []float64 `json:"totals"`
	}
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if wr.Rows != 1<<12 {
		t.Fatalf("rows %d, want %d", wr.Rows, 1<<12)
	}
	if len(wr.Totals) != 4 {
		t.Fatalf("limit ignored: %d totals echoed", len(wr.Totals))
	}
}

func TestParseAggList(t *testing.T) {
	specs, err := parseAggList(" sum(0), STDDEV_SAMP(2) ", 3)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := []sqlagg.AggSpec{
		{Kind: sqlagg.AggSum, Levels: 3, Col: 0},
		{Kind: sqlagg.AggStddevSamp, Levels: 3, Col: 2},
	}
	if len(specs) != len(want) {
		t.Fatalf("%d specs, want %d", len(specs), len(want))
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Fatalf("spec %d = %+v, want %+v", i, specs[i], want[i])
		}
	}
	for _, bad := range []string{"", "SUM", "SUM(", "SUM(x)", "SUM(-1)", "HUH(0)"} {
		if _, err := parseAggList(bad, 0); err == nil {
			t.Fatalf("parseAggList(%q) accepted malformed input", bad)
		}
	}
}

// TestMetricsWithCluster: with a zero-spec process cluster behind the
// server, as main builds it, /metrics carries the cluster's own
// registry beside the server's and the process-global one, and the
// workers' heartbeats reach it.
func TestMetricsWithCluster(t *testing.T) {
	pc, err := proc.NewCluster(proc.ClusterSpec{Nodes: 2, JoinTimeout: 30 * time.Second,
		Options: proc.Options{LogWriter: io.Discard}})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer pc.Close()
	ts := testServer(t, serve.Options{Cluster: pc})
	if status, body := get(t, ts.URL+"/query?aggs=SUM(0)"); status != http.StatusOK {
		t.Fatalf("query: status %d: %s", status, body)
	}
	_, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{"\nrepro_proc_joins_total 2\n", "\nrepro_proc_missing_slots 0\n", "\nserve_queries_total 1\n", "\nrepro_dist_wire_frames_out_total "} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
	// The first ping leaves a worker one default heartbeat (500ms) after
	// it attached.
	const wait = 10 * time.Second
	for deadline := time.Now().Add(wait); ; time.Sleep(50 * time.Millisecond) {
		_, body = get(t, ts.URL+"/metrics")
		if heartbeats(string(body)) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no heartbeat within %v: repro_proc_heartbeats_total = %v", wait, heartbeats(string(body)))
		}
	}
}

// heartbeats reads repro_proc_heartbeats_total off a /metrics body (-1
// when the series is missing).
func heartbeats(body string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "repro_proc_heartbeats_total "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				return f
			}
		}
	}
	return -1
}
