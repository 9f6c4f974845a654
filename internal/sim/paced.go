package sim

// PacedBandwidth is a rate-limited admission lane in front of a shared
// Bandwidth link. Foreground traffic keeps using the link directly and
// retains its FIFO position; background (repair) traffic must first draw
// tokens from a bucket that refills at a controller-settable rate, and
// its grant then starts the link transfer, so its aggregate admission
// rate — and therefore the fraction of the shared link it can occupy —
// is bounded even while the link itself has spare capacity. Admissions
// are granted FIFO; SetRate retunes the refill rate mid-flight (the
// feedback knob of the repair pacer).
type PacedBandwidth struct {
	eng *Engine
	// rate is the token refill rate in bytes per second; burst caps the
	// bucket so an idle lane cannot bank unbounded credit.
	rate  float64
	burst float64
	// tokens may go negative: an admission larger than the remaining
	// credit is granted once the bucket fills and pays the difference
	// back over time, so oversized requests make progress instead of
	// starving.
	tokens float64
	last   Time
	queue  FIFO[pacedGrant]
	// wake invalidates scheduled refill wakeups after a SetRate, which
	// changes when the head admission's tokens mature. A stale wakeup
	// still fires (and is counted as paced.wake) but grants nothing.
	wake    uint64
	pumping bool
	// wakeLabel is paced.wake, interned once; freeWakes recycles wakeup
	// events.
	wakeLabel Label
	freeWakes FreeList[pacedWake]
}

type pacedGrant struct {
	bytes int64
	grant Handler
}

// pacedWake is one scheduled refill wakeup, valid while gen matches the
// lane's wake generation.
type pacedWake struct {
	p   *PacedBandwidth
	gen uint64
}

// Fire recycles the wakeup, then pumps the queue unless a SetRate has
// superseded it.
func (w *pacedWake) Fire(Time) {
	p, gen := w.p, w.gen
	p.freeWakes.Put(w)
	if gen == p.wake {
		p.pump()
	}
}

// NewPacedBandwidth returns a paced lane with the given token refill
// rate and bucket capacity, both in bytes. The bucket starts full.
func NewPacedBandwidth(eng *Engine, rateBytesPerSec, burstBytes float64) *PacedBandwidth {
	if rateBytesPerSec <= 0 {
		panic("sim: paced bandwidth rate must be positive")
	}
	if burstBytes <= 0 {
		panic("sim: paced bandwidth burst must be positive")
	}
	return &PacedBandwidth{
		eng:       eng,
		rate:      rateBytesPerSec,
		burst:     burstBytes,
		tokens:    burstBytes,
		wakeLabel: eng.Intern("paced.wake"),
	}
}

// Rate returns the current token refill rate in bytes per second.
func (p *PacedBandwidth) Rate() float64 { return p.rate }

// Queued returns the admissions waiting for tokens.
func (p *PacedBandwidth) Queued() int { return p.queue.Len() }

// SetRate retunes the token refill rate. Credit accrued so far is settled
// at the old rate first; a pending wakeup for the head admission is
// recomputed under the new rate.
func (p *PacedBandwidth) SetRate(rateBytesPerSec float64) {
	if rateBytesPerSec <= 0 {
		panic("sim: paced bandwidth rate must be positive")
	}
	p.refill(p.eng.Now())
	p.rate = rateBytesPerSec
	p.wake++ // drop the stale wakeup; pump schedules a fresh one
	p.pump()
}

// Admit queues one admission of bytes and fires grant when the bucket
// has matured enough tokens, FIFO after earlier admissions. The grant
// typically starts the actual link transfer (or device work) the tokens
// gate; it runs inside Admit when credit is already there, so a typed
// grant event must be ready to fire before Admit is called.
func (p *PacedBandwidth) Admit(bytes int64, grant Handler) {
	if grant == nil {
		panic("sim: nil paced grant")
	}
	if bytes < 0 {
		panic("sim: negative paced admission")
	}
	p.queue.Push(pacedGrant{bytes: bytes, grant: grant})
	p.pump()
}

// Consume settles post-grant byte usage against the bucket: a positive
// delta (the granted operation moved more bytes than its admission
// charged — e.g. a repair batch that fanned out to several remote
// sources) pushes the bucket into debt that refill repays before the
// next grant matures, and a negative delta refunds credit for bytes the
// operation never moved. Either way the long-run admitted byte rate
// converges to the configured rate. The queue is re-pumped so a refund
// can mature the head immediately.
func (p *PacedBandwidth) Consume(deltaBytes int64) {
	p.refill(p.eng.Now())
	p.tokens -= float64(deltaBytes)
	if p.tokens > p.burst {
		p.tokens = p.burst
	}
	p.pump()
}

// refill matures tokens up to now at the current rate, capped at burst.
func (p *PacedBandwidth) refill(now Time) {
	if now > p.last {
		p.tokens += p.rate * float64(now-p.last) / float64(Second)
		if p.tokens > p.burst {
			p.tokens = p.burst
		}
		p.last = now
	}
}

// pump grants queued admissions while tokens last, then schedules one
// wakeup for the instant the head admission's tokens mature. A grant
// callback may re-enter Admit (or SetRate) — the pumping flag makes the
// loop non-reentrant so no admission is processed twice.
func (p *PacedBandwidth) pump() {
	if p.pumping {
		return
	}
	p.pumping = true
	defer func() { p.pumping = false }()
	for p.queue.Len() > 0 {
		now := p.eng.Now()
		p.refill(now)
		head := p.queue.Peek()
		// An admission larger than the bucket is granted at full burst
		// and drives tokens negative (paid back by refill) — otherwise
		// it could never be granted at all.
		need := float64(head.bytes)
		if need > p.burst {
			need = p.burst
		}
		if p.tokens < need {
			wait := Time((need-p.tokens)/p.rate*float64(Second)) + 1
			p.wake++
			w := p.freeWakes.Get()
			*w = pacedWake{p: p, gen: p.wake}
			p.eng.AfterHandler(wait, p.wakeLabel, w)
			return
		}
		p.tokens -= float64(head.bytes)
		p.queue.Pop()
		head.grant.Fire(now)
	}
}
