package serve

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"loadimb/internal/monitor"
	"loadimb/internal/temporal"
)

// swapSource serves whatever snapshot was stored last, so a test can
// change the window series width between requests the way a federator's
// merged width changes when its endpoints do.
type swapSource struct {
	snap atomic.Pointer[monitor.Snapshot]
}

func (s *swapSource) Snapshot() *monitor.Snapshot { return s.snap.Load() }

// widthSnapshot returns a snapshot whose window series is width wide; 0
// means windowing is disabled (no series).
func widthSnapshot(width float64) *monitor.Snapshot {
	if width == 0 {
		return &monitor.Snapshot{}
	}
	return &monitor.Snapshot{Series: &temporal.Series{Window: width, Procs: 1}}
}

// timelineWidth fetches /timeline.json and returns the width it echoes.
func timelineWidth(url string) (float64, error) {
	resp, err := testClient.Get(url + "/timeline.json")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var p timelinePayload
	err = json.NewDecoder(resp.Body).Decode(&p)
	return p.Window, err
}

// TestTimelineConcurrentRequests: concurrent /timeline.json requests on a
// Mux share one handler and must not race (run under -race).
func TestTimelineConcurrentRequests(t *testing.T) {
	src := &swapSource{}
	src.snap.Store(widthSnapshot(0.5))
	srv := httptest.NewServer(Mux(src))
	defer srv.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if w, err := timelineWidth(srv.URL); err != nil || w != 0.5 {
					t.Errorf("timeline width = %g, %v; want 0.5", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTimelineWidthFollowsSeries: the echoed width is the current
// snapshot's series width on every request, not the first one seen.
func TestTimelineWidthFollowsSeries(t *testing.T) {
	src := &swapSource{}
	srv := httptest.NewServer(Mux(src))
	defer srv.Close()
	for _, want := range []float64{0.5, 2, 0, 0.25} {
		src.snap.Store(widthSnapshot(want))
		got, err := timelineWidth(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("timeline width = %g, want %g", got, want)
		}
	}
}
