package timeline

import (
	"strings"
	"testing"

	"loadimb/internal/cfd"
	"loadimb/internal/trace"
)

func sampleLog(t *testing.T) *trace.Log {
	t.Helper()
	var l trace.Log
	for _, e := range []trace.Event{
		{Rank: 0, Region: "r", Activity: "comp", Start: 0, End: 4},
		{Rank: 0, Region: "r", Activity: "p2p", Start: 4, End: 8},
		{Rank: 1, Region: "r", Activity: "comp", Start: 0, End: 8},
	} {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	return &l
}

func TestNewBasicLayout(t *testing.T) {
	tl, err := New(sampleLog(t), Options{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Ranks != 2 || tl.From != 0 || tl.To != 8 {
		t.Fatalf("timeline = %+v", tl)
	}
	// Rank 0: first half comp (activity 0), second half p2p (1).
	for c := 0; c < 4; c++ {
		if tl.Lanes[0][c] != 0 {
			t.Errorf("rank 0 col %d = %d, want comp", c, tl.Lanes[0][c])
		}
	}
	for c := 4; c < 8; c++ {
		if tl.Lanes[0][c] != 1 {
			t.Errorf("rank 0 col %d = %d, want p2p", c, tl.Lanes[0][c])
		}
	}
	// Rank 1 all comp.
	for c := 0; c < 8; c++ {
		if tl.Lanes[1][c] != 0 {
			t.Errorf("rank 1 col %d = %d", c, tl.Lanes[1][c])
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil log should fail")
	}
	var empty trace.Log
	if _, err := New(&empty, Options{}); err == nil {
		t.Error("empty log should fail")
	}
	log := sampleLog(t)
	if _, err := New(log, Options{Width: -1}); err == nil {
		t.Error("negative width should fail")
	}
	if _, err := New(log, Options{From: 5, To: 3}); err == nil {
		t.Error("empty window should fail")
	}
	if _, err := New(log, Options{Activities: []string{"nope"}}); err == nil {
		t.Error("no matching activity should fail")
	}
}

func TestWindowZoom(t *testing.T) {
	tl, err := New(sampleLog(t), Options{Width: 4, From: 4, To: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Within the window rank 0 only does p2p.
	for c, j := range tl.Lanes[0] {
		if tl.ActivityNames[j] != "p2p" {
			t.Errorf("col %d = %d", c, j)
		}
	}
}

func TestActivityFilter(t *testing.T) {
	tl, err := New(sampleLog(t), Options{Width: 8, Activities: []string{"p2p"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.ActivityNames) != 1 || tl.ActivityNames[0] != "p2p" {
		t.Fatalf("names = %v", tl.ActivityNames)
	}
	// Rank 1 never does p2p: idle everywhere.
	for c, j := range tl.Lanes[1] {
		if j != -1 {
			t.Errorf("rank 1 col %d = %d, want idle", c, j)
		}
	}
}

func TestASCII(t *testing.T) {
	tl, err := New(sampleLog(t), Options{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	out := tl.ASCII()
	if !strings.Contains(out, "rank   0 |CCCCPPPP|") {
		t.Errorf("rank 0 lane wrong:\n%s", out)
	}
	if !strings.Contains(out, "legend: C=comp P=p2p") {
		t.Errorf("legend wrong:\n%s", out)
	}
}

// TestTimelineFromCFDRun renders a real simulated trace end to end.
func TestTimelineFromCFDRun(t *testing.T) {
	cfg := cfd.Defaults()
	cfg.GridX, cfg.GridY, cfg.Iterations = 64, 64, 3
	res, err := cfd.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := New(res.Log, Options{Width: 100})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Ranks != 16 {
		t.Fatalf("ranks = %d", tl.Ranks)
	}
	out := tl.ASCII()
	if strings.Count(out, "\n") != 18 { // 16 lanes + header + legend
		t.Errorf("timeline rows = %d", strings.Count(out, "\n"))
	}
	// The warmup leaves the first columns idle on every rank.
	if !strings.Contains(out, "|    ") {
		t.Error("expected leading idle time from the uninstrumented warmup")
	}
}
