package federate

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"loadimb/internal/monitor"
	"loadimb/internal/serve"
	"loadimb/internal/trace"
)

// benchEndpoints is the simulated fleet size: one httptest server hosts
// this many independent collectors behind path prefixes, so the bench
// measures protocol bytes and scrape fan-out without 100 real sockets.
const benchEndpoints = 100

// benchFleet stands up the fleet and returns the collectors (to mutate
// between rounds) and the federator's endpoint list.
func benchFleet(tb testing.TB) ([]*monitor.Collector, []Endpoint, *httptest.Server) {
	tb.Helper()
	mux := http.NewServeMux()
	collectors := make([]*monitor.Collector, benchEndpoints)
	endpoints := make([]Endpoint, benchEndpoints)
	for i := range collectors {
		c := monitor.NewCollector(monitor.Options{Shards: 1, Window: 0.25})
		// A realistic scrape target: a job some minutes into its run, with
		// a few hundred windows of trajectory behind it.
		for _, e := range jobEvents(8, 0.3+0.01*float64(i)) {
			c.Record(e)
		}
		for w := 0; w < 240; w++ {
			for p := 0; p < 8; p++ {
				start := 10 + 0.25*float64(w) + 0.01*float64(p)
				c.Record(trace.Event{Rank: p, Region: "solve", Activity: "comp",
					Start: start, End: start + 0.2})
			}
		}
		collectors[i] = c
		prefix := fmt.Sprintf("/ep%d", i)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, serve.NewHandler(c)))
		endpoints[i] = Endpoint{Name: fmt.Sprintf("job%d", i), URL: prefix}
	}
	srv := httptest.NewServer(mux)
	tb.Cleanup(srv.Close)
	for i := range endpoints {
		endpoints[i].URL = srv.URL + endpoints[i].URL
	}
	return collectors, endpoints, srv
}

// syncedFleetFederator returns a federator over the fleet after its
// cold sync, in which every endpoint ships a full document.
func syncedFleetFederator(tb testing.TB, endpoints []Endpoint) *Federator {
	tb.Helper()
	f, err := New(Options{
		Endpoints: endpoints,
		Timeout:   30 * time.Second,
		Client:    &http.Client{Timeout: 30 * time.Second},
	})
	if err != nil {
		tb.Fatal(err)
	}
	f.ScrapeAll(context.Background())
	if f.Snapshot().Cube == nil {
		tb.Fatal("fleet scrape produced no cube")
	}
	return f
}

// changeOne records round n's one new event, into endpoint n of the
// fleet (modulo its size), and returns that endpoint's index.
func changeOne(collectors []*monitor.Collector, n int) int {
	changed := n % benchEndpoints
	at := 200 + 0.5*float64(n)
	collectors[changed].Record(trace.Event{
		Rank: 1, Region: "solve", Activity: "comp", Start: at, End: at + 0.4,
	})
	return changed
}

// wireBytes is the body bytes the federator has fetched in total.
func wireBytes(f *Federator) uint64 {
	var n uint64
	for _, h := range f.Health() {
		n += h.Bytes
	}
	return n
}

// TestFederateScrapeFloors checks the 100-endpoint fleet's stated
// floors over 20 steady-state rounds with one changed endpoint each: a
// round fetches exactly 216 body bytes on average, and a JSON scraper
// would fetch at least 10x as many for the same changes.
func TestFederateScrapeFloors(t *testing.T) {
	const rounds = 20
	collectors, endpoints, _ := benchFleet(t)
	f := syncedFleetFederator(t, endpoints)
	start := wireBytes(f)
	var jsonBytes int64
	for n := 0; n < rounds; n++ {
		changed := changeOne(collectors, n)
		f.ScrapeAll(context.Background())
		jsonBytes += jsonDocBytes(t, endpoints[changed].URL)
	}
	wire := wireBytes(f) - start
	if wire != 216*rounds {
		t.Errorf("fleet rounds fetched %d body bytes, %.1f per round; want exactly 216 per round", wire, float64(wire)/rounds)
	}
	if uint64(jsonBytes) < 10*wire {
		t.Errorf("JSON scraping costs %d bytes against %d over the wire, want at least 10x", jsonBytes, wire)
	}
}

// BenchmarkFederateScrape measures one steady-state scrape round of a
// 100-endpoint fleet where a single endpoint changed since the last
// round — the common case for any real scrape interval. The federator
// rides LIFP: 99 endpoints answer 304, one ships a cell-level diff.
// Reported metrics: wire_B/op is body bytes the federator fetched per
// round; json_B/op is what an ETag-conditioned JSON scraper would have
// fetched instead — the gzip'd /cube.json and /windows.json of the
// changed endpoint, fetched directly from the server outside the timer
// (the 99 unchanged endpoints would have answered 304). Both are
// floors TestFederateScrapeFloors checks: 216 wire_B/op and a ≥10x
// delta-vs-JSON reduction. p99_ms is the 99th-percentile per-endpoint
// scrape latency.
func BenchmarkFederateScrape(b *testing.B) {
	b.Run("delta", func(b *testing.B) {
		collectors, endpoints, _ := benchFleet(b)
		f := syncedFleetFederator(b, endpoints)
		ctx := context.Background()
		startBytes := wireBytes(f)
		var latencies []float64
		var jsonBytes int64
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			changed := changeOne(collectors, n)
			f.ScrapeAll(ctx)
			for _, h := range f.Health() {
				latencies = append(latencies, h.ScrapeMillis)
			}
			b.StopTimer()
			jsonBytes += jsonDocBytes(b, endpoints[changed].URL)
			b.StartTimer()
		}
		b.StopTimer()
		b.ReportMetric(float64(wireBytes(f)-startBytes)/float64(b.N), "wire_B/op")
		b.ReportMetric(float64(jsonBytes)/float64(b.N), "json_B/op")
		sort.Float64s(latencies)
		if len(latencies) > 0 {
			b.ReportMetric(latencies[len(latencies)*99/100], "p99_ms")
		}
	})
}
