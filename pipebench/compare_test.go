package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, med, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Fatalf("quartiles = %v %v %v, want 1.5 4 12", q1, med, q3)
	}
}

func records(workload string, metric string, values ...float64) []Record {
	var out []Record
	for _, v := range values {
		var r Record
		r.Run.Workload = workload
		r.Result.Metrics = map[string]metricValue{metric: {Value: v, Unit: "ms"}}
		out = append(out, r)
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	metrics := []benchMetric{{Name: "lat", Better: "lower", Bound: 0.1}}
	parent := records("w", "lat", 100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		name   string
		change []float64
		want   string
		regr   int
	}{
		{"gain", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "gain", 0},
		{"same", []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}, "no regression", 0},
		{"regression", []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}, "REGRESSION", 1},
		{"unresolved", []float64{60, 160, 70, 150, 80, 140, 90, 130, 100, 120}, "unresolved", 0},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		n := printCompare(&buf, parent, records("w", "lat", c.change...), metrics)
		if n != c.regr || !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s: %d regressions, report:\n%s", c.name, n, buf.String())
		}
	}
}

func TestCPUProfileBuckets(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no samples taken")
	}
	shares := cpuShares(samples)
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 || shares["bench"] < 0.5 {
		t.Fatalf("shares %v (x=%g): want most time in the benchmark's own code", shares, x)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "loadimb/internal/tracefmt.(*WireEncoder).EncodeBatch"}, "tracefmt"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write"}, "syscall"},
		{[]string{"sort.Sort", "loadimb/internal/cluster.KMeans"}, "cluster"},
		{[]string{"net/http.(*conn).serve"}, "net_http"},
		{[]string{"runtime.futex", "runtime.mcall"}, "runtime"},
		{[]string{"aeshashbody", "runtime.mapaccess2_faststr", "loadimb/internal/temporal.(*Fold).Add"}, "temporal"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
