package main

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"loadimb/internal/monitor"
	"loadimb/internal/serve"
)

// rootOf sends steps [0, steps) of a small job into a daemon-config leaf,
// minus the last drop events, federates it through a tier-1 federator to
// a root and returns the root snapshot with the truth of every step.
func rootOf(t *testing.T, steps, drop int) (*monitor.Snapshot, *Truth) {
	t.Helper()
	sh := Shape{Procs: 8, Regions: 3, StepsPerWindow: 4, WindowsPerPhase: 1}
	sc := mustSchedule(t, sh, 5)
	st := sc.Stream(0, sh.Procs)
	col := newDaemonCollector()
	var sent int
	for s := 0; s < steps; s++ {
		batch := st.AppendStep(nil, s)
		if s == steps-1 {
			batch = batch[:len(batch)-drop]
		}
		col.RecordBatch(batch)
		sent += len(batch)
	}
	p, err := NewPipeline([]*monitor.Collector{col}, []http.Handler{serve.NewHandler(col)}, []string{"job"}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	snap, err := p.Scrape(context.Background(), 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	truth := NewTruth()
	st.AddTo(truth, 0, steps, "job/", 0)
	return snap, truth
}

func TestGatePassesOnExactRoot(t *testing.T) {
	snap, truth := rootOf(t, 40, 0)
	if err := Gate(snap, truth); err != nil {
		t.Fatal(err)
	}
}

func TestGateFailsOffByOneEvent(t *testing.T) {
	snap, truth := rootOf(t, 40, 1)
	err := Gate(snap, truth)
	if err == nil {
		t.Fatal("the gate passed a root cube missing one event")
	}
	if !strings.Contains(err.Error(), "counts") {
		t.Fatalf("unexpected gate error: %v", err)
	}
}

// TestGateChecksCubeAndIDP keeps the event count right but moves one
// event's time to another rank: only the cube and ID_P checks can see it.
func TestGateChecksCubeAndIDP(t *testing.T) {
	snap, truth := rootOf(t, 40, 0)
	c := truth.cell("job/loop 1", "computation")
	(*c)[0] += 0.01
	(*c)[1] -= 0.01
	err := Gate(snap, truth)
	if err == nil || !strings.Contains(err.Error(), "cell") {
		t.Fatalf("the gate missed a moved event: %v", err)
	}
}

func TestIncidences(t *testing.T) {
	cases := []struct {
		start, end float64
		want       int
	}{
		{1, 2, 1},
		{4, 6, 2},
		{0, 5, 1},  // ends on a boundary: the earlier window only
		{5, 5, 0},  // zero length on a boundary belongs to neither
		{6, 6, 1},  // zero length inside a window
		{1, 16, 4}, // spans four windows
		{4.5, 10, 2},
	}
	for _, c := range cases {
		if got := incidences(c.start, c.end); got != c.want {
			t.Errorf("incidences(%g, %g) = %d, want %d", c.start, c.end, got, c.want)
		}
	}
}
