package sim

// Resource models a serial device (a flash channel, a NIC, a switch port):
// at most one operation is in service at a time and waiters are served in
// FIFO order of Acquire calls.
//
// Acquire reserves the resource for dur nanoseconds starting at the earliest
// instant the resource is free, and schedules done.Fire(end) at end.
// This "reservation" style keeps queueing implicit and cheap; components
// that need reorderable queues (the storage I/O schedulers) keep their own
// explicit queues and only Acquire at dispatch time.
type Resource struct {
	eng *Engine
	// doneLabel is the interned "resource" label of completion events.
	doneLabel Label
	busyUntil Time
	// busy tracks cumulative busy time, for utilization reporting.
	busy Time
}

// NewResource returns an idle serial resource bound to eng.
func NewResource(eng *Engine) *Resource {
	if eng == nil {
		panic("sim: NewResource with nil engine")
	}
	return &Resource{eng: eng, doneLabel: eng.Intern("resource")}
}

// FreeAt returns the earliest time the resource becomes idle.
func (r *Resource) FreeAt() Time {
	if r.busyUntil < r.eng.Now() {
		return r.eng.Now()
	}
	return r.busyUntil
}

// Idle reports whether the resource is free right now.
func (r *Resource) Idle() bool { return r.busyUntil <= r.eng.Now() }

// Utilization returns cumulative busy time divided by elapsed time.
func (r *Resource) Utilization() float64 {
	if r.eng.Now() == 0 {
		return 0
	}
	b := r.busy
	if r.busyUntil > r.eng.Now() {
		// Do not count reserved-but-future time.
		b -= r.busyUntil - r.eng.Now()
	}
	return float64(b) / float64(r.eng.Now())
}

// Acquire reserves the resource for dur and schedules done at end, where
// it fires with now == end; done may be nil when only the reservation
// matters. Callers that need the window read it from the return values.
func (r *Resource) Acquire(dur Time, done Handler) (start, end Time) {
	if dur < 0 {
		panic("sim: negative duration")
	}
	start = r.FreeAt()
	end = start + dur
	r.busyUntil = end
	r.busy += dur
	if done != nil {
		r.eng.AtHandler(end, r.doneLabel, done)
	}
	return start, end
}

// Block extends the busy period through at least t, without an operation.
// Used to model garbage collection occupying a channel.
func (r *Resource) Block(until Time) {
	if until > r.busyUntil {
		if r.busyUntil < r.eng.Now() {
			r.busy += until - r.eng.Now()
		} else {
			r.busy += until - r.busyUntil
		}
		r.busyUntil = until
	}
}
