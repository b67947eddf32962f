package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"loadimb/internal/federate"
	"loadimb/internal/monitor"
	"loadimb/internal/mpi"
	"loadimb/internal/temporal"
)

// newDaemonCollector returns a collector configured as imbamon ships:
// -window 5, -window-cap 4096, automatic phase penalty, default rank bound
// and the MPI activity order. Windowing turns on the per-activity and
// per-region vectors and the streaming phase detection.
func newDaemonCollector() *monitor.Collector {
	return monitor.NewCollector(monitor.Options{
		Window:     window,
		WindowCap:  temporal.DefaultWindowCap,
		Activities: mpi.Activities(),
	})
}

// newDaemonFederator returns a federator configured as imbafed ships
// (-interval 2s -timeout 5s -max-failures 3 -window-cap 4096, delta
// scraping on), except that the benchmark drives its scrape rounds.
func newDaemonFederator(eps []federate.Endpoint, client *http.Client) (*federate.Federator, error) {
	return federate.New(federate.Options{
		Endpoints:   eps,
		Interval:    2 * time.Second,
		Timeout:     5 * time.Second,
		MaxFailures: 3,
		WindowCap:   temporal.DefaultWindowCap,
		Client:      client,
	})
}

// httpNode is one HTTP server on a loopback port.
type httpNode struct {
	srv  *http.Server
	url  string
	done chan error
}

func serveHTTP(h http.Handler) (*httpNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &httpNode{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- n.srv.Serve(ln) }()
	return n, nil
}

func (n *httpNode) Close() {
	_ = n.srv.Close()
	<-n.done
}

// Pipeline is the federation side of the benchmark: leaf collectors
// behind HTTP, tier-1 federators each scraping a group of leaves, and one
// root federator scraping the tier-1s with Raw set, as a two-tier imbafed
// deployment runs.
type Pipeline struct {
	Leaves  []*monitor.Collector
	Tier1   []*federate.Federator
	Root    *federate.Federator
	client  *http.Client
	nodes   []*httpNode
	rootURL string
	tr      *Tracer

	Counters
}

// Counters tally a pipeline's rounds so far. A workload that replaces its
// topology hands them on to the new pipeline.
type Counters struct {
	Rounds                  int
	tier1Bytes, rootBytes   uint64
	deltaScrapes, attempted int
	failures                uint64
	// ringBacklog samples, per round, the events the leaves had received
	// by the time their snapshot returned but that it did not fold: the
	// arrivals the fold lags behind.
	ringBacklog []float64
}

// NewPipeline serves the leaves (handlers[i] serves leaves[i]) and builds
// the federators above them, fanout leaves per tier-1 federator.
func NewPipeline(leaves []*monitor.Collector, handlers []http.Handler, names []string, fanout int, tr *Tracer) (*Pipeline, error) {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	p := &Pipeline{Leaves: leaves, client: &http.Client{Transport: tp}, tr: tr}
	var leafEps []federate.Endpoint
	for i, h := range handlers {
		n, err := serveHTTP(h)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.nodes = append(p.nodes, n)
		leafEps = append(leafEps, federate.Endpoint{Name: names[i], URL: n.url})
	}
	var tierEps []federate.Endpoint
	for g := 0; g*fanout < len(leafEps); g++ {
		f, err := newDaemonFederator(leafEps[g*fanout:min(len(leafEps), (g+1)*fanout)], p.client)
		if err != nil {
			p.Close()
			return nil, err
		}
		n, err := serveHTTP(federate.Handler(f))
		if err != nil {
			p.Close()
			return nil, err
		}
		p.nodes = append(p.nodes, n)
		p.Tier1 = append(p.Tier1, f)
		tierEps = append(tierEps, federate.Endpoint{Name: fmt.Sprintf("tier%d", g), URL: n.url, Raw: true})
	}
	root, err := newDaemonFederator(tierEps, p.client)
	if err != nil {
		p.Close()
		return nil, err
	}
	n, err := serveHTTP(federate.Handler(root))
	if err != nil {
		p.Close()
		return nil, err
	}
	p.nodes = append(p.nodes, n)
	p.Root, p.rootURL = root, n.url
	return p, nil
}

// Close stops every server of the pipeline.
func (p *Pipeline) Close() {
	for _, n := range p.nodes {
		n.Close()
	}
	p.client.CloseIdleConnections()
}

// healthTotals sums scrape counters over federators.
func healthTotals(fs []*federate.Federator) (bytes, failures uint64, eps []federate.EndpointHealth) {
	for _, f := range fs {
		for _, h := range f.Health() {
			bytes += h.Bytes
			failures += h.Failures
			eps = append(eps, h)
		}
	}
	return bytes, failures, eps
}

// Scrape runs one federation round: a direct snapshot of every leaf, the
// tier-1 scrapes (the federators run side by side, as separate daemons
// would) and merges, then the root scrape and merge. It returns the root
// snapshot and fails if any scrape failed. Spans nest under parent.
func (p *Pipeline) Scrape(ctx context.Context, round, parent int) (*monitor.Snapshot, error) {
	t1Bytes0, t1Fail0, t1Before := healthTotals(p.Tier1)
	rBytes0, rFail0, rBefore := healthTotals([]*federate.Federator{p.Root})
	backlog := 0.0
	for _, c := range p.Leaves {
		id := p.tr.Begin("monitor.snapshot", parent, round)
		snap := c.Snapshot()
		p.tr.End(id, 0)
		if n := c.Events(); n > snap.Events {
			backlog += float64(n - snap.Events)
		}
	}
	p.ringBacklog = append(p.ringBacklog, backlog)
	var wg sync.WaitGroup
	for _, f := range p.Tier1 {
		wg.Add(1)
		go func(f *federate.Federator) {
			defer wg.Done()
			id := p.tr.Begin("federate.tier1_scrape", parent, round)
			f.ScrapeAll(ctx)
			p.tr.End(id, 0)
		}(f)
	}
	wg.Wait()
	for _, f := range p.Tier1 {
		id := p.tr.Begin("federate.tier1_merge", parent, round)
		f.Snapshot()
		p.tr.End(id, 0)
	}
	id := p.tr.Begin("federate.root_scrape", parent, round)
	p.Root.ScrapeAll(ctx)
	p.tr.End(id, 0)
	id = p.tr.Begin("federate.root_merge", parent, round)
	snap := p.Root.Snapshot()
	p.tr.End(id, 0)

	t1Bytes, t1Fail, t1After := healthTotals(p.Tier1)
	rBytes, rFail, rAfter := healthTotals([]*federate.Federator{p.Root})
	p.Rounds++
	p.tier1Bytes += t1Bytes - t1Bytes0
	p.rootBytes += rBytes - rBytes0
	before := append(t1Before, rBefore...)
	for i, h := range append(t1After, rAfter...) {
		p.attempted++
		if h.Scrapes > before[i].Scrapes && h.Delta {
			p.deltaScrapes++
		}
	}
	if failed := (t1Fail - t1Fail0) + (rFail - rFail0); failed > 0 {
		p.failures += failed
		return snap, fmt.Errorf("round %d: %d scrapes failed", round, failed)
	}
	return snap, nil
}

// Metrics fetches the root's /metrics, the document Prometheus and the
// dashboard read, and returns the time it took and its size. A traced run
// first computes the snapshot's views and diagnosis in spans of their own
// (both are memoized per snapshot, so the GET then measures rendering);
// the returned time covers all three either way.
func (p *Pipeline) Metrics(ctx context.Context, round, parent int) (time.Duration, int64, error) {
	start := time.Now()
	if p.tr != nil {
		snap := p.Root.Snapshot()
		id := p.tr.Begin("core.views", parent, round)
		_, err := snap.Views()
		p.tr.End(id, 0)
		if err != nil {
			return 0, 0, err
		}
		id = p.tr.Begin("diagnose.root", parent, round)
		snap.Diagnosis()
		p.tr.End(id, 0)
	}
	id := p.tr.Begin("serve.metrics_render", parent, round)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.rootURL+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	p.tr.End(id, n)
	d := time.Since(start)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("root /metrics: %s", resp.Status)
	}
	return d, n, err
}

// waitEvents waits until the collector has received want events: every
// event the producers handed over is decoded and sits in the collector's
// rings, so the next snapshot folds it.
func waitEvents(c *monitor.Collector, want uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for c.Events()+c.Dropped() < want {
		if time.Now().After(deadline) {
			return errors.New("timed out waiting for the collector to receive every event")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if c.Dropped() > 0 {
		return fmt.Errorf("collector dropped %d events", c.Dropped())
	}
	return nil
}
