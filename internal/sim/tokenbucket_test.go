package sim

import "testing"

func TestTokenBucketBurstThenRate(t *testing.T) {
	tb := NewTokenBucket(1000, 2) // 1k/s, burst 2
	if tb.Admit(0) != 0 || tb.Admit(0) != 0 {
		t.Fatal("burst arrivals delayed")
	}
	if rel := tb.Admit(0); rel != Millisecond {
		t.Fatalf("over-burst release = %d, want 1ms at 1k/s", rel)
	}
	// The waiting arrival spent the token refilling until 1ms; the next
	// one queues a further millisecond behind it.
	if rel := tb.Admit(0); rel != 2*Millisecond {
		t.Fatalf("second over-burst release = %d, want 2ms", rel)
	}
}

func TestTokenBucketRefillCapsAtBurst(t *testing.T) {
	tb := NewTokenBucket(1000, 1)
	tb.Admit(0)
	// 10ms refill 10 tokens' worth, capped at a burst of 1.
	if rel := tb.Admit(10 * Millisecond); rel != 10*Millisecond {
		t.Fatalf("refilled arrival delayed to %d", rel)
	}
	if rel := tb.Admit(10 * Millisecond); rel != 11*Millisecond {
		t.Fatalf("arrival beyond the capped burst released at %d, want 11ms", rel)
	}
}

func TestTokenBucketValidation(t *testing.T) {
	if tb := NewTokenBucket(1, 0); tb.burst != 1 {
		t.Fatalf("burst 0 kept as %v, want 1", tb.burst)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive rate accepted")
		}
	}()
	NewTokenBucket(0, 1)
}
