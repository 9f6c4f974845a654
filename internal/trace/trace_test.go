package trace

import (
	"math"
	"testing"

	"rackblox/internal/sim"
)

func TestDisabledTracerIsNil(t *testing.T) {
	if tr := New(Options{}); tr != nil {
		t.Fatal("New with Enabled=false must return nil")
	}
	if tr := New(Options{Enabled: true}); tr == nil {
		t.Fatal("New with Enabled=true must return a tracer")
	}
}

func TestNilSafety(t *testing.T) {
	// Every method on a nil tracer and the nil spans it hands out must
	// no-op: the datapath calls them unconditionally.
	var tr *Tracer
	sp := tr.StartRequest(1, "read", 0)
	if sp != nil {
		t.Fatal("nil tracer returned a non-nil span")
	}
	sp.Annotate(Int("x", 1))
	sp.Phase("queue", 10)
	c := sp.Child("tor", 5)
	c.EndAt(7)
	sp.EndAt(9)
	sp.Finish(10)
	if sp.Dur() != 0 {
		t.Fatal("nil span Dur != 0")
	}
	tr.Instant("pacer", "rate_change", 1)
	tr.RecordGC(0, "regular", 0, 10, 1)
	if tr.GCOverlap(0, 0, 10) != 0 {
		t.Fatal("nil tracer GCOverlap != 0")
	}
	if tr.StartSpan("repair", "repair", 0, 0) != nil {
		t.Fatal("nil tracer StartSpan returned non-nil")
	}
	if tr.Collect() != nil {
		t.Fatal("nil tracer Collect returned non-nil")
	}
	var trace *Trace
	if trace.TailAttribution(0.01) != nil {
		t.Fatal("nil trace TailAttribution returned non-nil")
	}
}

func TestHeadSamplingByKeyHash(t *testing.T) {
	const every = 4
	tr := New(Options{Enabled: true, SampleEvery: every})
	// Writes bypass the tail reservoir, so kept writes measure head
	// sampling alone.
	want := 0
	for key := uint64(1); key <= 200; key++ {
		if hash64(key)%every == 0 {
			want++
		}
		sp := tr.StartRequest(key, "write", 0)
		sp.Finish(10)
	}
	got := len(tr.Collect().Spans)
	if got != want {
		t.Fatalf("kept %d writes, want %d (hash-sampled 1-in-%d)", got, want, every)
	}
	if want == 0 || want == 200 {
		t.Fatalf("degenerate sample count %d: pick different keys", want)
	}
}

func TestSampleEveryOneKeepsAll(t *testing.T) {
	tr := New(Options{Enabled: true, SampleEvery: 1})
	for key := uint64(1); key <= 50; key++ {
		tr.StartRequest(key, "read", 0).Finish(sim.Time(key))
	}
	trace := tr.Collect()
	if len(trace.Spans) != 50 || trace.TotalReads != 50 {
		t.Fatalf("kept %d spans, total %d; want 50/50", len(trace.Spans), trace.TotalReads)
	}
}

func TestTailReservoirKeepsSlowestReads(t *testing.T) {
	// A huge SampleEvery makes head sampling keep (almost) nothing, so
	// retention is the reservoir's doing alone.
	const every = 1 << 30
	tr := New(Options{Enabled: true, SampleEvery: every, TailKeep: 3})
	durs := []sim.Time{10, 50, 20, 40, 30, 60, 5}
	for i, d := range durs {
		key := uint64(i + 1)
		if hash64(key)%every == 0 {
			t.Fatalf("key %d is head-sampled; pick different keys", key)
		}
		tr.StartRequest(key, "read", 0).Finish(d)
	}
	trace := tr.Collect()
	if trace.TotalReads != len(durs) {
		t.Fatalf("TotalReads = %d, want %d", trace.TotalReads, len(durs))
	}
	got := map[sim.Time]bool{}
	for _, s := range trace.Spans {
		got[s.Dur()] = true
	}
	for _, want := range []sim.Time{60, 50, 40} {
		if !got[want] {
			t.Fatalf("reservoir kept %v, missing dur %d", got, want)
		}
	}
	if len(trace.Spans) != 3 {
		t.Fatalf("kept %d spans, want 3 (TailKeep)", len(trace.Spans))
	}
}

func TestWritesNotInReservoir(t *testing.T) {
	const every = 1 << 30
	tr := New(Options{Enabled: true, SampleEvery: every, TailKeep: 8})
	tr.StartRequest(1, "write", 0).Finish(1000)
	trace := tr.Collect()
	if len(trace.Spans) != 0 {
		t.Fatalf("non-sampled write was kept: %+v", trace.Spans)
	}
}

func TestBackgroundSpansAlwaysKept(t *testing.T) {
	const every = 1 << 30
	tr := New(Options{Enabled: true, SampleEvery: every})
	tr.StartSpan("repair", "repair", 7, 0).Finish(100)
	trace := tr.Collect()
	if len(trace.Spans) != 1 || trace.Spans[0].Kind != "repair" {
		t.Fatalf("background span not kept: %+v", trace.Spans)
	}
}

func TestGCOverlap(t *testing.T) {
	tr := New(Options{Enabled: true})
	tr.RecordGC(3, "regular", 10, 20, 1)
	tr.RecordGC(3, "soft", 30, 40, 1)
	tr.RecordGC(9, "regular", 0, 100, 1) // other vSSD: never counted
	cases := []struct {
		from, to, want sim.Time
	}{
		{0, 5, 0},    // before both bursts
		{10, 20, 10}, // exactly the first burst
		{15, 35, 10}, // half of each
		{0, 100, 20}, // covers both
		{22, 28, 0},  // the gap between bursts
		{20, 10, 0},  // inverted window
	}
	for _, c := range cases {
		if got := tr.GCOverlap(3, c.from, c.to); got != c.want {
			t.Fatalf("GCOverlap(3, %d, %d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
	if got := tr.GCOverlap(5, 0, 100); got != 0 {
		t.Fatalf("GCOverlap on vSSD with no bursts = %d, want 0", got)
	}
}

func TestPhaseDropsNonPositiveDurations(t *testing.T) {
	tr := New(Options{Enabled: true, SampleEvery: 1})
	sp := tr.StartRequest(1, "read", 0)
	sp.Phase("queue", 0)
	sp.Phase("device", -5)
	sp.Phase("net_out", 3)
	sp.Finish(3)
	spans := tr.Collect().Spans
	if len(spans) != 1 || len(spans[0].Phases) != 1 || spans[0].Phases[0].Name != "net_out" {
		t.Fatalf("phases = %+v, want only net_out", spans[0].Phases)
	}
}

func TestTailAttributionSumsToOne(t *testing.T) {
	tr := New(Options{Enabled: true, SampleEvery: 1})
	// 200 reads whose phases tile their latency: device grows with the
	// key so the slowest 1% (2 reads) are keys 199 and 200, dominated by
	// the device phase.
	for key := uint64(1); key <= 200; key++ {
		d := sim.Time(key) * 10
		sp := tr.StartRequest(key, "read", 0)
		sp.Phase("queue", 5)
		sp.Phase("device", d-8)
		sp.Phase("net_out", 3)
		sp.Finish(d)
	}
	trace := tr.Collect()
	shares := trace.TailAttribution(0.01)
	if len(shares) != 3 {
		t.Fatalf("shares = %+v, want 3 phases", shares)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s.Fraction
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %g, want ~1", sum)
	}
	// Sorted by descending fraction; device dominates the tail.
	if shares[0].Phase != "device" || shares[0].Fraction < 0.9 {
		t.Fatalf("top share = %+v, want device > 0.9", shares[0])
	}
	for i := 1; i < len(shares); i++ {
		if shares[i].Fraction > shares[i-1].Fraction {
			t.Fatalf("shares not sorted descending: %+v", shares)
		}
	}
}

func TestTailAttributionThresholdCountsUnkeptReads(t *testing.T) {
	// Only the reservoir survives, but the 1% threshold is computed over
	// ALL finished reads — the tail set must not be diluted by the kept
	// set being small.
	const every = 1 << 30
	tr := New(Options{Enabled: true, SampleEvery: every, TailKeep: 4})
	for key := uint64(1); key <= 100; key++ {
		d := sim.Time(key) * 10
		sp := tr.StartRequest(key, "read", 0)
		sp.Phase("device", d)
		sp.Finish(d)
	}
	trace := tr.Collect()
	// ceil(0.01*100) = 1 read: the slowest (dur 1000).
	shares := trace.TailAttribution(0.01)
	if len(shares) != 1 || shares[0].Phase != "device" || math.Abs(shares[0].Fraction-1) > 1e-9 {
		t.Fatalf("shares = %+v, want device at 1.0", shares)
	}
}

func TestAbandonedSpansAlwaysKeptOutsideReadStats(t *testing.T) {
	// No head sample and a one-slot reservoir: only Abandon keeps the
	// lost reads, and they must not enter the read count or the tail.
	tr := New(Options{Enabled: true, SampleEvery: 1 << 30, TailKeep: 1})
	for key := uint64(1); key <= 10; key++ {
		sp := tr.StartRequest(key, "read", 0)
		sp.Phase("device", 10)
		sp.Finish(10)
	}
	for key := uint64(11); key <= 13; key++ {
		sp := tr.StartRequest(key, "read", 0)
		sp.Phase("lost", 1000)
		sp.Annotate(String("status", "lost"))
		sp.Abandon(1000)
	}
	trace := tr.Collect()
	if trace.TotalReads != 10 {
		t.Fatalf("TotalReads = %d, want the 10 completed reads", trace.TotalReads)
	}
	lost := 0
	for _, s := range trace.Spans {
		if s.Dur() == 1000 {
			lost++
		}
	}
	if lost != 3 {
		t.Fatalf("%d of 3 abandoned spans kept", lost)
	}
	shares := trace.TailAttribution(0.1)
	if len(shares) != 1 || shares[0].Phase != "device" {
		t.Fatalf("shares = %+v, want the completed reads' device phase only", shares)
	}
	var nilSpan *Span
	nilSpan.Abandon(5) // nil-safe like every span method
}

func TestCollectOrdersSpansByStartThenKey(t *testing.T) {
	tr := New(Options{Enabled: true, SampleEvery: 1})
	starts := []sim.Time{30, 10, 20, 10}
	keys := []uint64{4, 9, 2, 3}
	for i := range starts {
		tr.StartRequest(keys[i], "read", starts[i]).Finish(starts[i] + 5)
	}
	spans := tr.Collect().Spans
	for i := 1; i < len(spans); i++ {
		a, b := spans[i-1], spans[i]
		if a.Start > b.Start || (a.Start == b.Start && a.Key > b.Key) {
			t.Fatalf("spans out of (Start, Key) order at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestCollectSortsChildrenByStart(t *testing.T) {
	tr := New(Options{Enabled: true, SampleEvery: 1})
	sp := tr.StartRequest(1, "read", 0)
	sp.Child("late", 30).EndAt(40)
	sp.Child("early", 5).EndAt(10)
	sp.Finish(50)
	kids := tr.Collect().Spans[0].Children
	if len(kids) != 2 || kids[0].Name != "early" || kids[1].Name != "late" {
		t.Fatalf("children not sorted by start: %+v, %+v", kids[0], kids[1])
	}
}
