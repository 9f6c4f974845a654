// Package demo is an eventlabel fixture: unlabeled, empty-label and
// missing-label schedules are findings; labeled, dynamic-label, and
// directive-escaped calls are not, in both the closure and the
// typed-handler form.
package demo

import "rackblox/internal/sim"

func schedule(eng *sim.Engine) {
	eng.At(5, func(sim.Time) {})             // want "unlabeled Engine.At call"
	eng.After(5, func(sim.Time) {})          // want "unlabeled Engine.After call"
	eng.AtNamed(5, "", func(sim.Time) {})    // want "empty label"
	eng.AfterNamed(5, "", func(sim.Time) {}) // want "empty label"

	eng.AtNamed(5, "demo.work", func(sim.Time) {})
	eng.AfterNamed(5, "demo.work", func(sim.Time) {})
	eng.SetTick(10, func(sim.Time) {})
}

// task is a typed handler holding the label it was constructed with.
type task struct{ label sim.Label }

func (t *task) Fire(sim.Time) {}

// The typed-handler form: the label is checked where it is interned, and
// the zero Label passed straight to a schedule is a missing label.
func typed(eng *sim.Engine, h sim.Handler) {
	eng.AtHandler(5, sim.Label{}, h)      // want "missing its label"
	eng.AfterHandler(5, (sim.Label{}), h) // want "missing its label"
	eng.AtHandler(5, eng.Intern(""), h)   // want "Engine.Intern with empty label"
	t := &task{label: eng.Intern("")}     // want "Engine.Intern with empty label"
	eng.AfterHandler(5, t.label, t)

	work := eng.Intern("demo.work")
	eng.AtHandler(5, work, h)
	eng.AfterHandler(5, eng.Intern("demo.work"), sim.EventFunc(func(sim.Time) {}))
	eng.AfterHandler(5, work, &task{label: work})
}

// Dynamic labels are assumed meaningful: only compile-time-empty
// constants are findings.
func dynamic(eng *sim.Engine, label string, l sim.Label, h sim.Handler) {
	eng.AtNamed(5, label, func(sim.Time) {})
	eng.AfterNamed(5, pick(), func(sim.Time) {})
	eng.AtHandler(5, eng.Intern(label), h)
	eng.AfterHandler(5, l, h)
}

func pick() string { return "demo.pick" }

// The directive opts out deliberate unlabeled schedules, end-of-line or
// own-line.
func escaped(eng *sim.Engine) {
	eng.After(5, func(sim.Time) {}) //rackvet:unlabeled prototype scaffolding, intentionally bucketed under other
	//rackvet:unlabeled own-line placement works too
	eng.At(5, func(sim.Time) {})
	eng.AtHandler(5, sim.Label{}, sim.EventFunc(func(sim.Time) {})) //rackvet:unlabeled typed-form scaffolding, bucketed under other
}

// A bare directive still suppresses the schedule finding, but is itself
// a finding: the rationale is where the human's proof lives.
func bareEscape(eng *sim.Engine) {
	//rackvet:unlabeled // want "bare //rackvet:unlabeled directive"
	eng.After(5, func(sim.Time) {})
}
