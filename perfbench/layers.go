package main

import (
	"strings"

	"rackblox/internal/core"
)

// layerMetrics reads the per-layer work counts the Results export,
// normalized per attempted request unless the unit says otherwise.
func layerMetrics(b *batch) map[string]metric {
	var attempted, runSeconds, wallSeconds, events, pageBytes, repairBytes, repaired float64
	var repairDone []float64
	for _, r := range b.runs {
		attempted += float64(r.attempted())
		runSeconds += r.run.Seconds()
		wallSeconds += r.runWall.Seconds()
		events += float64(r.res.Events)
		pageBytes = float64(r.res.Config.Geometry.PageSize)
		repairBytes += float64(r.res.CrossRackRepairBytes)
		repaired += float64(r.res.RepairedStripes)
		repairDone = append(repairDone, float64(r.res.RepairCompletionTime)/1e9)
	}
	runs := float64(len(b.runs))
	sum := func(f func(*core.Result) float64) float64 {
		var s float64
		for _, r := range b.runs {
			s += f(r.res)
		}
		return s
	}
	perReq := func(f func(*core.Result) int64) metric {
		return metric{sum(func(r *core.Result) float64 { return float64(f(r)) }) / attempted, "1/req"}
	}
	eventsOf := func(group string) metric {
		return metric{sum(func(r *core.Result) float64 {
			var n uint64
			for label, c := range r.EventsByHandler {
				if label == group || strings.HasPrefix(label, group+".") {
					n += c
				}
			}
			return float64(n)
		}) / attempted, "1/req"}
	}
	var lost, unrecov float64
	for _, r := range b.runs {
		lost += float64(r.res.LostRequests)
		unrecov += float64(r.res.UnrecoverableReads)
	}
	reads := float64(b.reads)

	m := map[string]metric{
		"sim.events_per_req": {events / attempted, "1/req"},
		"sim.events_per_s":   {events / runSeconds, "1/s"},
		// Wall-clock twin of sim_reqs_per_s: the one that shows a
		// parallel speed-up, and host contention with it.
		"sim.wall_reqs_per_s": {attempted / wallSeconds, "1/s"},

		"core.cache_hits":    perReq(func(r *core.Result) int64 { return r.CacheHits }),
		"core.bounces":       perReq(func(r *core.Result) int64 { return r.Bounces }),
		"core.stale_retries": perReq(func(r *core.Result) int64 { return r.StaleRetries }),
		"core.sw_redirects":  perReq(func(r *core.Result) int64 { return r.SWRedirects }),
		"core.failovers":     perReq(func(r *core.Result) int64 { return r.Failovers }),

		"switch.forwarded":          perReq(func(r *core.Result) int64 { return r.Switch.Forwarded }),
		"switch.redirected":         perReq(func(r *core.Result) int64 { return r.Switch.Redirected }),
		"switch.degraded_redirects": perReq(func(r *core.Result) int64 { return r.Switch.DegradedRedirects }),
		"switch.handoffs":           perReq(func(r *core.Result) int64 { return r.Switch.Handoffs }),
		"switch.gc_delayed":         perReq(func(r *core.Result) int64 { return r.Switch.GCDelayed }),
		"switch.dropped":            perReq(func(r *core.Result) int64 { return r.Switch.Dropped }),

		"ssd.gc_events":    perReq(func(r *core.Result) int64 { return int64(r.GCEvents) }),
		"ssd.forced_gcs":   perReq(func(r *core.Result) int64 { return r.ForcedGCs }),
		"ssd.bg_gc_events": perReq(func(r *core.Result) int64 { return int64(r.BGGCEvents) }),
		"ssd.gc_delayed":   perReq(func(r *core.Result) int64 { return int64(r.GCDelayed) }),
		"ssd.write_amp":    {sum(func(r *core.Result) float64 { return r.WriteAmp }) / runs, "ratio"},

		"ec.degraded_reads":       perReq(func(r *core.Result) int64 { return r.DegradedReads }),
		"ec.local_degraded_reads": perReq(func(r *core.Result) int64 { return r.LocalDegradedReads }),
		"ec.repaired_stripes":     perReq(func(r *core.Result) int64 { return r.RepairedStripes }),
		"ec.local_repair_stripes": perReq(func(r *core.Result) int64 { return r.LocalRepairStripes }),
		"ec.agg_repair_stripes":   perReq(func(r *core.Result) int64 { return r.AggregatedRepairStripes }),
		"ec.retransmits":          perReq(func(r *core.Result) int64 { return r.ECRetransmits }),
		"ec.sub_writes":           perReq(func(r *core.Result) int64 { return r.ECSubWrites }),

		"spine.util":                     {sum(func(r *core.Result) float64 { return r.SpineUtilization }) / runs, "fraction"},
		"spine.repair_mb":                {repairBytes / 1e6 / runs, "MB/run"},
		"spine.fg_mb":                    {sum(func(r *core.Result) float64 { return float64(r.ForegroundCrossRackBytes) }) / 1e6 / runs, "MB/run"},
		"spine.cross_fetches":            perReq(func(r *core.Result) int64 { return r.CrossRackFetches }),
		"spine.repair_chunks_per_stripe": {share(repairBytes/pageBytes, repaired), "count"},
		"pacer.slo_violation_frac":       {sum(func(r *core.Result) float64 { return r.SLOViolationFraction }) / runs, "fraction"},

		"failed_frac":   {share(lost+unrecov, attempted), "fraction"},
		"repair_done_s": {median(repairDone), "s"},

		"lat.net_in_us":  {share(b.readParts[0], reads) / 1e3, "us"},
		"lat.queue_us":   {share(b.readParts[1], reads) / 1e3, "us"},
		"lat.device_us":  {share(b.readParts[2], reads) / 1e3, "us"},
		"lat.net_out_us": {share(b.readParts[3], reads) / 1e3, "us"},
	}
	for _, g := range []string{"resource", "paced", "client", "net", "server", "switch",
		"gc", "hermes", "ec", "failover", "scenario"} {
		m["events."+g] = eventsOf(g)
	}
	return m
}
