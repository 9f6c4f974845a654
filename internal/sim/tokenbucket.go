package sim

// TokenBucket is a rate limiter over virtual time: tokens refill at rate
// per second up to burst, each admission spends one, and an arrival that
// finds less than one token waits until the deficit has refilled.
type TokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   Time
}

// NewTokenBucket returns a full bucket; burst below 1 is raised to 1.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if rate <= 0 {
		panic("sim: token bucket rate must be positive")
	}
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Admit returns the earliest time an arrival at now may proceed and
// spends its token.
func (t *TokenBucket) Admit(now Time) Time {
	t.tokens += float64(now-t.last) / 1e9 * t.rate
	if t.tokens > t.burst {
		t.tokens = t.burst
	}
	t.last = now
	if t.tokens >= 1 {
		t.tokens--
		return now
	}
	wait := Time((1 - t.tokens) / t.rate * 1e9)
	t.tokens = 0
	t.last = now + wait
	return now + wait
}
