package core

import (
	"errors"
	"testing"

	"rackblox/internal/sim"
)

// fuzzEvent decodes one 4-byte record into a scenario event: kind
// (modulo 6, so one value past the last real kind exercises the unknown
// branch), a signed index, and a signed coarse timestamp — negative
// times and out-of-range indices are exactly what the validator must
// reject gracefully.
func fuzzEvent(b []byte) Event {
	at := sim.Time(int16(uint16(b[2])<<8|uint16(b[3]))) * 100 * sim.Microsecond
	return Event{
		Kind:  EventKind(int(b[0]) % 6),
		Index: int(int8(b[1])),
		At:    at,
	}
}

// permuteSameInstant returns a copy of events in which every group of
// events sharing an instant is reordered among that group's own slots:
// rotated by the low seven bits of flags, then reversed when the high
// bit is set. Events at distinct instants keep their positions.
func permuteSameInstant(events []Event, flags byte) []Event {
	slots := make(map[sim.Time][]int)
	var instants []sim.Time
	for i, ev := range events {
		if _, seen := slots[ev.At]; !seen {
			instants = append(instants, ev.At)
		}
		slots[ev.At] = append(slots[ev.At], i)
	}
	out := make([]Event, len(events))
	for _, at := range instants {
		group := slots[at]
		n := len(group)
		for k, i := range group {
			j := (k + int(flags&0x7f)) % n
			if flags&0x80 != 0 {
				j = n - 1 - j
			}
			out[i] = events[group[j]]
		}
	}
	return out
}

// FuzzScenarioValidate drives the scenario-timeline validator with
// arbitrary event lists — orderings, duplicates, revive-without-fail,
// unknown kinds, negative times — and asserts it never panics and that
// every rejection is a typed *FailureSpecError whose message formats
// cleanly. A trailing partial record (1-3 leftover bytes) doubles as a
// flag byte that permutes the events sharing each instant
// (permuteSameInstant): the verdict must not change, because the driver
// runs same-instant events in an order fixed by kind, not by listing.
func FuzzScenarioValidate(f *testing.F) {
	// Seed corpus: the interesting accept/reject shapes.
	f.Add([]byte{0, 0, 0, 100})                            // one server crash
	f.Add([]byte{0, 0, 0, 100, 3, 0, 0, 200})              // fail then revive
	f.Add([]byte{0, 0, 0, 100, 3, 0, 0, 200, 0, 0, 1, 44}) // fail, heal, fail again
	f.Add([]byte{3, 0, 0, 100})                            // revive before fail
	f.Add([]byte{0, 0, 0, 100, 0, 0, 0, 200})              // double crash
	f.Add([]byte{1, 1, 0, 100, 2, 1, 0, 100})              // rack+tor same instant
	f.Add([]byte{2, 0, 0, 100, 4, 0, 0, 200, 2, 0, 1, 44}) // tor fail/heal/fail
	f.Add([]byte{0, 99, 0, 100})                           // out of range
	f.Add([]byte{0, 0, 255, 156})                          // negative time
	f.Add([]byte{5, 0, 0, 100})                            // unknown kind
	f.Add([]byte{1, 0, 0, 100, 3, 2, 0, 200})              // rack crash, revive one member
	f.Add([]byte{})                                        // empty timeline

	// Same-instant permutations, chosen by the trailing flag byte: a
	// revive and a re-crash of one server (rotated), the same for a ToR
	// (reversed), a rack and one of its servers, three distinct crashes,
	// and a rack+tor double-booking (rotated and reversed).
	f.Add([]byte{0, 0, 0, 100, 3, 0, 0, 200, 0, 0, 0, 200, 1})
	f.Add([]byte{2, 0, 0, 100, 4, 0, 0, 200, 2, 0, 0, 200, 0x80})
	f.Add([]byte{1, 0, 0, 100, 0, 1, 0, 100, 1})
	f.Add([]byte{0, 0, 0, 100, 0, 1, 0, 100, 0, 2, 0, 100, 2})
	f.Add([]byte{1, 1, 0, 100, 2, 1, 0, 100, 0x81})

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := DefaultConfig()
		cfg.Racks = 2
		cfg.StorageServers = 3
		full := len(data) / 4 * 4
		for i := 0; i+3 < full; i += 4 {
			cfg.Scenario = append(cfg.Scenario, fuzzEvent(data[i:i+4]))
		}
		err := cfg.Validate()
		if rest := data[full:]; len(rest) > 0 {
			perm := cfg
			perm.Scenario = permuteSameInstant(cfg.Scenario, rest[0])
			if perr := perm.Validate(); (err == nil) != (perr == nil) {
				t.Fatalf("verdict depends on same-instant listing order:\n%v -> %v\n%v -> %v",
					cfg.Scenario, err, perm.Scenario, perr)
			}
		}
		if err == nil {
			return
		}
		var spec *FailureSpecError
		if !errors.As(err, &spec) {
			t.Fatalf("Validate rejection is not a *FailureSpecError: %v", err)
		}
		if spec.Error() == "" {
			t.Fatal("FailureSpecError formatted to an empty message")
		}
	})
}

// FuzzScenarioRun runs every timeline Validate accepts on the smallest
// multi-rack cluster — two racks of three servers, a short run — and
// asserts the run completes without a panic or an error, drains within
// an hour of simulated time, and that the spine never delivers more
// than was offered, for foreground and repair bytes alike. The first
// byte picks the redundancy — Hermes replication, RS(2,2) or LRC(2,2),
// both spread across the racks — from its low seven bits, and its top
// bit turns on the SLO repair pacer; every following 4-byte record is
// one fuzzEvent. This drives the failure control plane — failover
// install, member-dead marks, re-integration, ToR replay and Hermes
// re-pairing — and the pacer through orderings no hand-written test
// lists.
func FuzzScenarioRun(f *testing.F) {
	f.Add([]byte{0})                                                       // replication, healthy
	f.Add([]byte{0, 2, 1, 0, 100, 4, 1, 3, 232})                           // replication: tor 1 dark 10-100 ms
	f.Add([]byte{0, 0, 2, 0, 100, 0, 3, 1, 44, 3, 2, 3, 232})              // replication: both of pair 1 crash, one returns
	f.Add([]byte{1, 0, 0, 0, 100, 3, 0, 3, 32})                            // RS: crash, catch-up revival
	f.Add([]byte{1, 1, 1, 0, 100})                                         // RS: rack crash
	f.Add([]byte{1, 0, 0, 0, 100, 2, 0, 1, 44, 0, 3, 1, 144, 4, 0, 3, 32}) // RS: crash, tor dark, crash, tor back
	f.Add([]byte{2, 0, 0, 0, 100, 3, 0, 2, 88, 0, 0, 3, 32})               // LRC: crash, revive, crash again
	f.Add([]byte{2, 2, 0, 0, 100, 0, 4, 0, 200, 4, 0, 3, 32})              // LRC: tor dark, remote crash, tor back
	f.Add([]byte{2, 0, 1, 0, 100, 1, 1, 3, 32})                            // LRC: a rack-0 crash, then rack 1
	f.Add([]byte{0x82, 1, 0, 2, 98, 2, 1, 3, 232})                         // paced LRC: rack 0 crashes, tor 1 dark: no member to rebuild onto

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := DefaultConfig()
		cfg.Racks, cfg.StorageServers = 2, 3
		cfg.Warmup = 20 * sim.Millisecond
		cfg.Duration = 150 * sim.Millisecond
		switch (data[0] & 0x7f) % 3 {
		case 1:
			cfg.Redundancy, cfg.Placement = ErasureCode(2, 2), PlacementSpread
		case 2:
			cfg.Redundancy, cfg.Placement = LocalParityCode(2, 2), PlacementSpread
		}
		if data[0]&0x80 != 0 {
			cfg.RepairSLO = RepairSLO{TargetP99: 6400 * sim.Microsecond}
		}
		for i := 1; i+4 <= len(data); i += 4 {
			cfg.Scenario = append(cfg.Scenario, fuzzEvent(data[i:i+4]))
		}
		if cfg.Validate() != nil {
			return
		}
		r, err := NewRack(cfg)
		if err != nil {
			t.Fatalf("NewRack(%v, %v): %v", cfg.Redundancy, cfg.Scenario, err)
		}
		// Paced repair at the pacer's 1 MB/s floor legitimately runs for
		// seconds; a run that never drains reaches the hour in well
		// under a second of host time.
		res := runBounded(t, r, 3600*sim.Second)
		if res.ForegroundCrossRackBytes > res.ForegroundCrossRackBytesOffered {
			t.Errorf("spine delivered %d foreground bytes of %d offered",
				res.ForegroundCrossRackBytes, res.ForegroundCrossRackBytesOffered)
		}
		if res.CrossRackRepairBytes > res.CrossRackRepairBytesOffered {
			t.Errorf("spine delivered %d repair bytes of %d offered",
				res.CrossRackRepairBytes, res.CrossRackRepairBytesOffered)
		}
	})
}
