package sim

import (
	"testing"
	"testing/quick"
)

func TestBandwidthTransferTime(t *testing.T) {
	eng := NewEngine()
	bw := NewBandwidth(eng, 100e6) // 100 MB/s
	if got := bw.TransferTime(100e6); got != Second {
		t.Fatalf("100MB at 100MB/s = %d ns, want 1s", got)
	}
	if got := bw.TransferTime(0); got != 0 {
		t.Fatalf("zero bytes took %d ns", got)
	}
}

func TestBandwidthSerializesTransfers(t *testing.T) {
	eng := NewEngine()
	bw := NewBandwidth(eng, 1e6) // 1 MB/s => 1 byte/us
	var ends []Time
	for i := 0; i < 3; i++ {
		bw.Transfer(1000, EventFunc(func(end Time) { ends = append(ends, end) }))
	}
	eng.Run()
	// Three 1ms transfers serialize: ends at 1, 2, 3 ms.
	want := []Time{Millisecond, 2 * Millisecond, 3 * Millisecond}
	if len(ends) != 3 {
		t.Fatalf("%d completions", len(ends))
	}
	for i, w := range want {
		if ends[i] != w {
			t.Fatalf("transfer %d ended at %d, want %d", i, ends[i], w)
		}
	}
	if bw.Bytes() != 3000 {
		t.Fatalf("Bytes = %d", bw.Bytes())
	}
	if bw.OfferedBytes() != 3000 {
		t.Fatalf("OfferedBytes = %d", bw.OfferedBytes())
	}
	// The link was busy the whole 3ms: utilization 1.
	if u := bw.Utilization(); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %f", u)
	}
}

// TestBandwidthBytesCountOnCompletion is the regression test for the
// enqueue-time byte accounting bug: a simulation that ends mid-transfer
// must not report bytes the link never finished moving. Offered bytes
// keep the old enqueue-time meaning; delivered bytes lag them until the
// link drains, at which point the two reconcile exactly.
func TestBandwidthBytesCountOnCompletion(t *testing.T) {
	eng := NewEngine()
	bw := NewBandwidth(eng, 1e6) // 1 MB/s => 1000 bytes per ms
	bw.Transfer(1000, nil)       // ends at 1ms
	bw.Transfer(1000, nil)       // ends at 2ms

	// Every transfer is reserved up front, none has completed.
	if got := bw.OfferedBytes(); got != 2000 {
		t.Fatalf("OfferedBytes at enqueue = %d, want 2000", got)
	}
	if got := bw.Bytes(); got != 0 {
		t.Fatalf("Bytes at enqueue = %d, want 0", got)
	}

	// Stop the clock mid-way through the second transfer: only the first
	// counts as delivered.
	eng.RunUntil(1500 * Microsecond)
	if got := bw.Bytes(); got != 1000 {
		t.Fatalf("Bytes mid-transfer = %d, want 1000", got)
	}
	if bw.Bytes() > bw.OfferedBytes() {
		t.Fatalf("delivered %d exceeds offered %d", bw.Bytes(), bw.OfferedBytes())
	}

	// Draining the engine reconciles the two counters.
	eng.Run()
	if bw.Bytes() != 2000 || bw.OfferedBytes() != 2000 {
		t.Fatalf("after drain: delivered %d offered %d, want 2000 each",
			bw.Bytes(), bw.OfferedBytes())
	}
}

// Regression (PR 7): TransferTime truncated float64(bytes)/rate*1e9
// toward zero, shaving a sub-nanosecond sliver off every transfer. At a
// rate like 3 B/s each 1-byte transfer occupied 333333333ns instead of
// the true 333333333.3..., so back-to-back transfers delivered MORE
// bytes per elapsed time than the configured capacity — breaking the
// invariant the repair pacer and the cross-rack figures rely on.
func TestBandwidthNeverExceedsConfiguredRate(t *testing.T) {
	eng := NewEngine()
	bw := NewBandwidth(eng, 3) // 3 B/s: per-byte time is a repeating fraction
	var lastEnd Time
	for i := 0; i < 100; i++ {
		bw.Transfer(1, EventFunc(func(end Time) { lastEnd = end }))
	}
	eng.Run()
	if lastEnd == 0 {
		t.Fatal("no transfer completed")
	}
	rate := float64(bw.Bytes()) / (float64(lastEnd) / float64(Second))
	if rate > bw.BytesPerSec() {
		t.Fatalf("delivered %.12f B/s over a %.0f B/s link", rate, bw.BytesPerSec())
	}
}

// Regression (PR 7): a transfer small enough that bytes/rate rounded to
// under a nanosecond used to occupy the link for 0ns — free bandwidth.
// Any positive byte count must occupy at least one nanosecond.
func TestBandwidthTinyTransferOccupiesLink(t *testing.T) {
	eng := NewEngine()
	bw := NewBandwidth(eng, 1e12) // 1 TB/s: one byte is a picosecond
	if got := bw.TransferTime(1); got < 1 {
		t.Fatalf("1 byte at 1TB/s occupies %dns, want >= 1", got)
	}
}

// Property: for any rate and any sequence of transfer sizes, the bytes a
// drained link reports delivered never exceed capacity x elapsed time.
func TestBandwidthRateBoundProperty(t *testing.T) {
	f := func(rateSeed uint16, sizes []uint16) bool {
		eng := NewEngine()
		rate := float64(rateSeed%997) + 0.5 // 0.5 .. 996.5 B/s
		bw := NewBandwidth(eng, rate)
		var lastEnd Time
		any := false
		for _, s := range sizes {
			if s == 0 {
				continue
			}
			any = true
			bw.Transfer(int64(s), EventFunc(func(end Time) { lastEnd = end }))
		}
		eng.Run()
		if !any {
			return true
		}
		return float64(bw.Bytes()) <= rate*float64(lastEnd)/float64(Second)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBandwidthRejectsNonPositiveRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-rate link accepted")
		}
	}()
	NewBandwidth(NewEngine(), 0)
}
