package federate

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"loadimb/internal/diagnose"
	"loadimb/internal/monitor"
	"loadimb/internal/serve"
	"loadimb/internal/temporal"
	"loadimb/internal/trace"
)

// TestFederatedDiagnoseAgreesWithLivePath extends the federation
// agreement property to the automatic diagnosis: the report the
// federator serves over the merged window series must equal what one
// live collector folding every event (ranks offset per job, regions
// pre-namespaced "job/region" the way Merge namespaces them) diagnoses,
// with the job-local rank labels attached. The merge preserves busy
// vectors bit for bit and Diagnose is deterministic, so the comparison
// is exact.
func TestFederatedDiagnoseAgreesWithLivePath(t *testing.T) {
	const window = 0.5
	jobs := []jobSpec{
		{name: "jobA", procs: 4, events: jobEvents(4, 0.1)},
		{name: "jobB", procs: 3, events: jobEvents(3, 0.1)},
	}
	// Inject a straggler into jobB's rank 1: a long extra computation in
	// the solve region, the localized fault the diagnosis must attribute
	// to the federated rank "jobB/1".
	jobs[1].events = append(jobs[1].events,
		trace.Event{Rank: 1, Region: "solve", Activity: "comp", Start: 2.0, End: 5.0})

	var endpoints []Endpoint
	for _, job := range jobs {
		srv := startWindowedEndpoint(t, job, window)
		endpoints = append(endpoints, Endpoint{Name: job.name, URL: srv.URL})
	}
	f, err := New(Options{Endpoints: endpoints, Client: testClient})
	if err != nil {
		t.Fatal(err)
	}
	f.ScrapeAll(context.Background())
	fedSrv := httptest.NewServer(Handler(f))
	defer fedSrv.Close()

	var got diagnose.Report
	getJSON(t, fedSrv.URL+"/diagnose.json", &got)
	if got.Window != window || got.Procs != 7 {
		t.Fatalf("federated report head: window=%g procs=%d", got.Window, got.Procs)
	}

	// The oracle folds every event into one collector, ranks offset and
	// regions namespaced exactly as the federated merge does, then labels
	// the merged rank space job-locally before diagnosing.
	oracle := monitor.NewCollector(monitor.Options{Window: window})
	var labels []string
	offset := 0
	for _, job := range jobs {
		for _, e := range job.events {
			e.Rank += offset
			e.Region = job.name + "/" + e.Region
			oracle.Record(e)
		}
		for r := 0; r < job.procs; r++ {
			labels = append(labels, fmt.Sprintf("%s/%d", job.name, r))
		}
		offset += job.procs
	}
	snap := oracle.Snapshot()
	snap.RankLabels = labels
	want := snap.Diagnosis()

	gotJSON, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("federated diagnosis diverges from the live path.\ngot:\n%s\nwant:\n%s", gotJSON, wantJSON)
	}

	// The dimensions carry job-namespaced regions and shared activities.
	kinds := map[string]bool{}
	for _, d := range got.Dimensions {
		kinds[d.Kind] = true
		if d.Kind == diagnose.KindRegion && !strings.Contains(d.Name, "/") {
			t.Errorf("federated region dimension %q is not job-namespaced", d.Name)
		}
	}
	if !kinds[diagnose.KindActivity] || !kinds[diagnose.KindRegion] {
		t.Errorf("dimension kinds = %v, want both activities and regions", kinds)
	}

	// The injected straggler is the top finding, named job-locally.
	if len(got.Findings) == 0 {
		t.Fatal("no federated findings on a run with an injected straggler")
	}
	top := got.Findings[0]
	if top.Rank != 5 || top.RankLabel != "jobB/1" {
		t.Errorf("top finding = rank %d label %q, want rank 5 label jobB/1: %q",
			top.Rank, top.RankLabel, top.Summary)
	}
	if !strings.Contains(top.Summary, "rank jobB/1") {
		t.Errorf("summary does not name the job-local rank: %q", top.Summary)
	}
}

// TestFederatedDiagnoseWithoutWindows answers 503, like the endpoints'
// own /diagnose.json while windowing is disabled.
func TestFederatedDiagnoseWithoutWindows(t *testing.T) {
	job := jobSpec{name: "plain", procs: 2, events: jobEvents(2, 0.5)}
	srv := startEndpoint(t, job) // windowing disabled: no /windows.json series
	f, err := New(Options{Endpoints: []Endpoint{{Name: job.name, URL: srv.URL}}, Client: testClient})
	if err != nil {
		t.Fatal(err)
	}
	f.ScrapeAll(context.Background())
	fedSrv := httptest.NewServer(Handler(f))
	defer fedSrv.Close()
	resp, err := testClient.Get(fedSrv.URL + "/diagnose.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("/diagnose.json without windows = %d, want 503", resp.StatusCode)
	}
}

// TestFederatedDiagnosisMemoAcrossStaleness diagnoses one federator's
// snapshots generation after generation while its middle endpoint goes
// stale and comes back, which shifts the last job's rank offsets and
// labels both ways. Every generation's memoized report must be
// byte-identical to Diagnose from scratch on the same snapshot.
func TestFederatedDiagnosisMemoAcrossStaleness(t *testing.T) {
	names := []string{"jobA", "jobB", "jobC"}
	procs := []int{4, 3, 4}
	var collectors []*monitor.Collector
	var failing atomic.Bool
	var endpoints []Endpoint
	for i, name := range names {
		c := monitor.NewCollector(monitor.Options{Window: 1})
		collectors = append(collectors, c)
		h := serve.NewHandler(c)
		if name == "jobB" {
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if failing.Load() {
					http.Error(w, "down", http.StatusServiceUnavailable)
					return
				}
				inner.ServeHTTP(w, r)
			})
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		endpoints = append(endpoints, Endpoint{Name: names[i], URL: srv.URL})
	}
	f, err := New(Options{Endpoints: endpoints, MaxFailures: 1, Client: testClient})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sawProcs := map[int]bool{}
	reused := 0
	var prev *diagnose.Report
	for gen := 0; gen < 24; gen++ {
		for j, c := range collectors {
			for p := 0; p < procs[j]; p++ {
				comp := 0.3
				if (gen/5)%2 == 1 && p == j {
					comp = 0.8 // a per-job straggler every other 5 windows
				}
				start := float64(gen)
				c.Record(trace.Event{Rank: p, Region: "solve", Activity: "comp", Start: start, End: start + comp})
				c.Record(trace.Event{Rank: p, Region: "halo", Activity: "comm", Start: start + comp, End: start + comp + 0.1})
			}
		}
		failing.Store(gen >= 8 && gen < 14)
		f.ScrapeAll(ctx)
		snap := f.Snapshot()
		if snap.DiagnosisMemo == nil {
			t.Fatal("federated snapshot carries no diagnosis memo")
		}
		got := snap.Diagnosis()
		phases := make([]temporal.Phase, len(snap.Phases))
		for i, ps := range snap.Phases {
			phases[i] = ps.Phase()
		}
		want := diagnose.Diagnose(snap.Series, phases, diagnose.Options{RankLabels: snap.RankLabels})
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("generation %d: memoized diagnosis differs from Diagnose\n got: %s\nwant: %s", gen, gotJSON, wantJSON)
		}
		sawProcs[got.Procs] = true
		if prev != nil {
			for _, a := range got.Phases {
				for _, b := range prev.Phases {
					if len(a.Cohorts) > 0 && len(b.Cohorts) > 0 && &a.Cohorts[0] == &b.Cohorts[0] {
						reused++
					}
				}
			}
		}
		prev = got
	}
	if !sawProcs[11] || !sawProcs[8] {
		t.Fatalf("rank counts seen %v, want 11 with jobB live and 8 while it was stale", sawProcs)
	}
	if reused == 0 {
		t.Error("no phase was ever reused across generations")
	}
}
