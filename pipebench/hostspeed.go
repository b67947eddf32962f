package main

import (
	"math"
	"time"
)

// A shared host's speed drifts: on a 2-vCPU VM of a shared Xeon host the
// CPU seconds the pipeline spends per event moved by up to 60% between
// runs minutes apart, and every time and rate it showed moved with them.
// So a run also times a fixed reference kernel, code of the benchmark's
// own that no change to the repository touches, and reports its times
// scaled to the reference host's speed: a time t measured while the
// kernel took k ms reads t * refNominalMs / k. The report and the record
// line keep the unscaled values too.

// refNominalMs is the reference kernel's median time on the reference
// host (2-vCPU Intel Xeon VM, go1.24).
const refNominalMs = 12.0

// refTable is the kernel's working set, 4 MiB.
var refTable = make([]uint64, 1<<19)

// refKernel runs the reference kernel once and returns its time in ms: a
// fixed sequence of pseudo-random read-modify-writes over refTable, so
// integer work and cache misses, as in the pipeline.
func refKernel() float64 {
	t := time.Now()
	mask := uint64(len(refTable) - 1)
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		refTable[j] += x * 2654435761
		acc += refTable[(j*7)&mask]
	}
	refTable[0] += acc
	return ms(time.Since(t))
}

// probe times the reference kernel once. Workloads call it where the
// pipeline is idle: before each set-up, in ingest's pauses, between
// rounds.
func (m *Measure) probe() { m.Ref = append(m.Ref, refKernel()) }

// speed is the reference kernel's nominal time over its median time in
// the run: below 1 on a host slower than the reference.
func (m *Measure) speed() float64 {
	if len(m.Ref) == 0 {
		return 1
	}
	return refNominalMs / median(m.Ref)
}

// timeScaling gives, for each end-to-end metric the host's speed moves,
// the power of the speed its value is scaled by: 1 for a time, -1 for a
// rate. Ratios and memory are not scaled.
var timeScaling = map[string]float64{
	"setup_s":           1,
	"events_per_s":      -1,
	"cpu_s_per_mevent":  1,
	"visible_p50_ms":    1,
	"metrics_p50_ms":    1,
	"producer_wired_ms": 1,
}

// scaled returns the end-to-end values raw scaled to the reference host.
func (m *Measure) scaled(raw map[string]float64) map[string]float64 {
	s := m.speed()
	out := make(map[string]float64, len(raw))
	for name, v := range raw {
		out[name] = v * math.Pow(s, timeScaling[name])
	}
	return out
}
