package tracefmt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"loadimb/internal/trace"
)

// randomEvents builds a pseudo-random event stream shaped like real
// instrumentation: mostly monotone timestamps, a handful of region and
// activity names, multiple ranks.
func randomEvents(rng *rand.Rand, n int) []trace.Event {
	regions := []string{"loop 1", "loop 2", "loop 3", "init", "halo-exchange"}
	activities := []string{"computation", "point-to-point", "collective", "synchronization"}
	events := make([]trace.Event, n)
	cursors := make([]float64, 8)
	for i := range events {
		r := rng.Intn(len(cursors))
		d := rng.Float64() * 0.25
		start := cursors[r]
		if rng.Intn(10) == 0 {
			// Occasional out-of-order start, as concurrent ranks produce.
			start *= rng.Float64()
		}
		events[i] = trace.Event{
			Rank:     r,
			Region:   regions[rng.Intn(len(regions))],
			Activity: activities[rng.Intn(len(activities))],
			Start:    start,
			End:      start + d,
		}
		cursors[r] = start + d
	}
	return events
}

// decodeAll drains a stream through a decoder until EOF.
func decodeAll(t *testing.T, r io.Reader) []trace.Event {
	t.Helper()
	dec := NewWireDecoder(r)
	var out []trace.Event
	for {
		var err error
		out, err = dec.DecodeBatch(out)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("decoding stream: %v", err)
		}
	}
}

// TestWireRoundTrip checks that encode->decode is the exact identity on
// the event stream, bit for bit, across many batch split points.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		events := randomEvents(rng, 1+rng.Intn(500))
		var buf bytes.Buffer
		enc := NewWireEncoder(&buf)
		rest := events
		for len(rest) > 0 {
			n := 1 + rng.Intn(len(rest))
			if err := enc.EncodeBatch(rest[:n]); err != nil {
				t.Fatalf("encoding: %v", err)
			}
			rest = rest[n:]
		}
		got := decodeAll(t, &buf)
		if len(got) != len(events) {
			t.Fatalf("trial %d: decoded %d events, want %d", trial, len(got), len(events))
		}
		for i := range events {
			if got[i].Rank != events[i].Rank || got[i].Region != events[i].Region ||
				got[i].Activity != events[i].Activity ||
				math.Float64bits(got[i].Start) != math.Float64bits(events[i].Start) ||
				math.Float64bits(got[i].End) != math.Float64bits(events[i].End) {
				t.Fatalf("trial %d event %d: got %+v, want %+v", trial, i, got[i], events[i])
			}
		}
	}
}

// TestWireRoundTripSpecialFloats checks that non-finite and denormal
// timestamps survive the bit-delta encoding exactly. The wire carries
// whatever the producer sends — validation is the collector's job — so
// the codec must be lossless even for garbage values.
func TestWireRoundTripSpecialFloats(t *testing.T) {
	weird := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.SmallestNonzeroFloat64, -math.MaxFloat64, 1e-300}
	var events []trace.Event
	for _, s := range weird {
		for _, e := range weird {
			events = append(events, trace.Event{Rank: 0, Region: "r", Activity: "a", Start: s, End: e})
		}
	}
	var buf bytes.Buffer
	enc := NewWireEncoder(&buf)
	if err := enc.EncodeBatch(events); err != nil {
		t.Fatalf("encoding: %v", err)
	}
	got := decodeAll(t, &buf)
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if math.Float64bits(got[i].Start) != math.Float64bits(events[i].Start) ||
			math.Float64bits(got[i].End) != math.Float64bits(events[i].End) {
			t.Fatalf("event %d: got bits (%x, %x), want (%x, %x)", i,
				math.Float64bits(got[i].Start), math.Float64bits(got[i].End),
				math.Float64bits(events[i].Start), math.Float64bits(events[i].End))
		}
	}
}

// TestWireInterning checks that a repeated name costs a 1-byte reference
// after its first transmission: the steady-state wire cost per event must
// be far below a naive strings-every-time encoding.
func TestWireInterning(t *testing.T) {
	e := trace.Event{Rank: 3, Region: "loop 1", Activity: "computation", Start: 1, End: 2}
	var one, many bytes.Buffer
	if err := NewWireEncoder(&one).EncodeBatch([]trace.Event{e}); err != nil {
		t.Fatal(err)
	}
	batch := make([]trace.Event, 1000)
	for i := range batch {
		batch[i] = e
		batch[i].Start = float64(i)
		batch[i].End = float64(i) + 0.5
	}
	if err := NewWireEncoder(&many).EncodeBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Steady state: 1-byte rank delta + two 1-byte name refs + two varint
	// timestamp deltas (up to ~9 bytes each for arbitrary floats). Names
	// re-sent every event would cost ~20 bytes more.
	perEvent := float64(many.Len()-one.Len()) / float64(len(batch)-1)
	if perEvent > 21 {
		t.Fatalf("steady-state wire cost %.1f bytes/event, want <= 21 (interning broken?)", perEvent)
	}
}

// TestWireEmptyStream: a connection that closes without sending anything
// is an empty trace, not an error.
func TestWireEmptyStream(t *testing.T) {
	dec := NewWireDecoder(bytes.NewReader(nil))
	if _, err := dec.DecodeBatch(nil); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

// TestWireBadHandshake rejects wrong magic and unsupported versions with
// the sentinel errors.
func TestWireBadHandshake(t *testing.T) {
	if _, err := NewWireDecoder(bytes.NewReader([]byte("LIMB"))).DecodeBatch(nil); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("wrong magic: got %v, want ErrBadMagic", err)
	}
	if _, err := NewWireDecoder(bytes.NewReader([]byte("LIWP\x02"))).DecodeBatch(nil); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("future version: got %v, want ErrBadVersion", err)
	}
	if _, err := NewWireDecoder(bytes.NewReader([]byte("LI"))).DecodeBatch(nil); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("truncated magic: got %v, want ErrBadMagic", err)
	}
}

// TestWireCorruptFrames: structurally broken frames after a valid
// handshake yield ErrWire, never a panic or a silent truncation.
func TestWireCorruptFrames(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		enc := NewWireEncoder(&buf)
		if err := enc.EncodeBatch([]trace.Event{{Rank: 1, Region: "r", Activity: "a", Start: 0, End: 1}}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	cases := map[string][]byte{
		"zero frame length":  append([]byte("LIWP\x01"), 0x00),
		"oversized frame":    append([]byte("LIWP\x01"), 0xff, 0xff, 0xff, 0x7f),
		"unknown frame type": append([]byte("LIWP\x01"), 0x02, 0x7f, 0x01),
		"truncated body":     valid[:len(valid)-2],
		"trailing bytes": func() []byte {
			b := append([]byte(nil), valid...)
			// Grow the declared frame length by appending junk and fixing
			// the length byte (frame starts after the 5-byte handshake).
			b = append(b, 0xee)
			b[5]++
			return b
		}(),
		"bad string ref": append([]byte("LIWP\x01"), 0x04, FrameEvents, 0x01, 0x00, 0x05),
	}
	for name, data := range cases {
		dec := NewWireDecoder(bytes.NewReader(data))
		var err error
		var out []trace.Event
		for err == nil {
			out, err = dec.DecodeBatch(out)
		}
		if err == io.EOF || err == nil {
			t.Errorf("%s: decoder accepted corrupt input", name)
		}
	}
}

// TestWireDecoderReuseAfterBatches: intern tables and deltas persist
// across frames of one stream but never leak between streams.
func TestWireDecoderReuseAfterBatches(t *testing.T) {
	e := trace.Event{Rank: 2, Region: "loop 9", Activity: "collective", Start: 4, End: 5}
	var buf bytes.Buffer
	enc := NewWireEncoder(&buf)
	for i := 0; i < 3; i++ {
		if err := enc.EncodeBatch([]trace.Event{e}); err != nil {
			t.Fatal(err)
		}
	}
	firstStream := buf.Len()
	got := decodeAll(t, bytes.NewReader(buf.Bytes()))
	if len(got) != 3 {
		t.Fatalf("decoded %d events, want 3", len(got))
	}
	// A second, independent stream must re-intern from scratch: reusing
	// the old decoder tables would mis-resolve its references.
	var buf2 bytes.Buffer
	if err := NewWireEncoder(&buf2).EncodeBatch([]trace.Event{e}); err != nil {
		t.Fatal(err)
	}
	got2 := decodeAll(t, &buf2)
	if len(got2) != 1 || got2[0] != e {
		t.Fatalf("second stream decoded %+v", got2)
	}
	_ = firstStream
}

// TestWireFrameSplit: a single batch dense with newly interned
// near-maximum-length names encodes to more than MaxWireFrame bytes of
// payload. The encoder must split it across frames instead of erroring
// out — the stream is legitimate, just name-heavy — and the round trip
// must stay the identity, because intern tables and timestamp/rank
// deltas are stream state, not frame state. decodeAll doubles as the
// frame-size check: the decoder rejects any frame above MaxWireFrame.
func TestWireFrameSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	events := make([]trace.Event, 2048)
	cursor := 0.0
	for i := range events {
		name := make([]byte, maxNameLen)
		for j := range name {
			name[j] = byte('a' + rng.Intn(26))
		}
		d := rng.Float64() * 0.1
		events[i] = trace.Event{
			Rank:     i % 4,
			Region:   string(name),
			Activity: "compute",
			Start:    cursor,
			End:      cursor + d,
		}
		cursor += d
	}
	var buf bytes.Buffer
	enc := NewWireEncoder(&buf)
	if err := enc.EncodeBatch(events); err != nil {
		t.Fatalf("encoding a name-heavy batch: %v", err)
	}
	if buf.Len() <= MaxWireFrame {
		t.Fatalf("stream is %d bytes; the test needs more than MaxWireFrame (%d) to force a split", buf.Len(), MaxWireFrame)
	}
	got := decodeAll(t, bytes.NewReader(buf.Bytes()))
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d corrupted across the split: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

// TestWireEncoderEnforcesTableBudget: once distinct names fill the
// table's byte budget, the encoder refuses the next new name with ErrWire
// instead of sending it. Everything it did send decodes cleanly, where
// before the decoder dropped the stream with "byte budget exceeded".
func TestWireEncoderEnforcesTableBudget(t *testing.T) {
	const fit = maxWireTableBytes / maxNameLen // maximum-length names that fit
	events := make([]trace.Event, fit+8)
	for i := range events {
		name := fmt.Sprintf("%08d", i) + strings.Repeat("r", maxNameLen-8)
		events[i] = trace.Event{Region: name, Activity: "a", Start: float64(i), End: float64(i) + 1}
	}
	var buf bytes.Buffer
	if err := NewWireEncoder(&buf).EncodeBatch(events); !errors.Is(err, ErrWire) {
		t.Fatalf("encoding %d names of %d bytes: err = %v, want ErrWire", len(events), maxNameLen, err)
	}
	got := decodeAll(t, &buf)
	if len(got) == 0 || len(got) > fit {
		t.Fatalf("decoded %d events, want 1..%d", len(got), fit)
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d changed in transit", i)
		}
	}
}
