// Package sim is a miniature of the real engine: just enough surface for
// the analyzers' receiver-type matching. The At/After forwarders below
// delegate with the zero Label, and the Named forwarders through Intern,
// exactly like the real ones — the structural exemption the eventlabel
// suite asserts.
package sim

// Time is virtual simulation time in nanoseconds.
type Time int64

// Handler is a typed event handler.
type Handler interface{ Fire(now Time) }

// EventFunc is an event handler.
type EventFunc func(now Time)

func (f EventFunc) Fire(now Time) { f(now) }

// Label is an interned handler label; the zero Label is "other".
type Label struct{ slot int32 }

// Engine is the fixture engine.
type Engine struct {
	now Time
}

func (e *Engine) Now() Time { return e.now }

func (e *Engine) Pending() int { return 0 }

func (e *Engine) Processed() uint64 { return 0 }

func (e *Engine) ProcessedBy() map[string]uint64 { return nil }

func (e *Engine) Intern(label string) Label {
	if label == "" {
		return Label{}
	}
	return Label{1}
}

func (e *Engine) At(t Time, fn EventFunc) { e.AtHandler(t, Label{}, fn) }

func (e *Engine) AtNamed(t Time, label string, fn EventFunc) { e.AtHandler(t, e.Intern(label), fn) }

func (e *Engine) After(d Time, fn EventFunc) { e.AfterHandler(d, Label{}, fn) }

func (e *Engine) AfterNamed(d Time, label string, fn EventFunc) {
	e.AfterHandler(d, e.Intern(label), fn)
}

func (e *Engine) AtHandler(t Time, l Label, h Handler) { _, _ = l, h }

func (e *Engine) AfterHandler(d Time, l Label, h Handler) { e.AtHandler(e.now+d, l, h) }

func (e *Engine) SetTick(interval Time, fn func(at Time)) { _ = fn }

// RNG is the fixture per-component random stream.
type RNG struct{ state uint64 }

func NewRNG(seed int64) *RNG { return &RNG{state: uint64(seed)} }

func (r *RNG) Intn(n int) int { return int(r.state) % n }

func (r *RNG) Int63n(n int64) int64 { return int64(r.state) % n }
