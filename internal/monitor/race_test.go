//go:build race

package monitor

// The race detector slows the fold and the snapshot's phase detection
// about tenfold, so wall-clock bounds in tests scale with it.
func init() { wallScale = 10 }
