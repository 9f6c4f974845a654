// Package experiments regenerates every table and figure of the RackBlox
// evaluation (§4) and the cluster experiments beyond it. Each experiment
// is a declaration — the configs it runs and the columns it reads from
// each run's Result — over one run shell, runner, the package's only
// caller of core.Run: it applies the observability Options to every
// simulated run, paper figures included, and reports each Result to
// Options.OnResult under the experiment id and a "series/x" label.
// cmd/rackbench renders the tables, and the repository-root benchmarks
// call them at reduced scale.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"rackblox/internal/core"
	"rackblox/internal/flash"
	"rackblox/internal/netsim"
	"rackblox/internal/predictor"
	"rackblox/internal/sched"
	"rackblox/internal/sim"
	"rackblox/internal/stats"
	"rackblox/internal/trace"
	"rackblox/internal/wear"
	"rackblox/internal/workload"
)

// Scale shrinks experiment durations for fast runs: 1.0 is the full
// rackbench setting, benchmarks use ~0.25.
type Scale float64

// duration scales the measured window.
func (s Scale) duration(full sim.Time) sim.Time {
	if s <= 0 {
		s = 1
	}
	d := sim.Time(float64(full) * float64(s))
	if d < 100*sim.Millisecond {
		d = 100 * sim.Millisecond
	}
	return d
}

// Row is one printable result row: a label, an x-position, and named
// values in figure order.
type Row struct {
	Series string
	X      string
	Values map[string]float64
}

// Table is a titled collection of rows.
type Table struct {
	ID    string
	Title string
	Cols  []string
	Rows  []Row
}

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-22s %-14s", "series", "x")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, " %14s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-22s %-14s", r.Series, r.X)
		for _, c := range t.Cols {
			fmt.Fprintf(&b, " %14.3f", r.Values[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Options tunes experiment runs; zero fields keep each experiment's
// defaults. Racks, CrossBWMBps and RepairSLOTarget shape the cluster
// experiments (cmd/rackbench -racks, -crossbw, -repair-slo). Trace,
// MetricsInterval and OnResult observe every simulated run of every
// experiment, the paper figures included.
type Options struct {
	// Racks overrides the rack fault-domain count.
	Racks int
	// CrossBWMBps overrides the spine/aggregation link bandwidth in MB/s.
	CrossBWMBps float64
	// RepairSLOTarget overrides the foreground read p99 target of the
	// SLO-pacing experiments (figslo) and enables pacing for -scenario
	// runs; 0 keeps figslo's auto-derived target (a multiple of the
	// healthy baseline's p99) and leaves -scenario runs unpaced.
	RepairSLOTarget sim.Time
	// Trace enables the flight recorder for every run the experiment
	// executes (cmd/rackbench -trace). Observer-only: the tabulated
	// numbers are byte-identical with or without it.
	Trace trace.Options
	// MetricsInterval arms the time-series sampler for every run
	// (cmd/rackbench -metrics); 0 leaves it off.
	MetricsInterval sim.Time
	// OnResult, when set, receives every run's full Result as it
	// completes, keyed by the experiment id and a "series/x" label that
	// is unique within the experiment — how cmd/rackbench collects
	// traces, timelines, and per-run counters for its JSON report.
	OnResult func(id, series string, res *core.Result)
}

// instrument applies the observability knobs to one run's config.
func (o Options) instrument(cfg *core.Config) {
	cfg.Trace = o.Trace
	cfg.MetricsInterval = o.MetricsInterval
}

// notify hands one completed run to the OnResult hook, if any.
func (o Options) notify(id, series string, res *core.Result) {
	if o.OnResult != nil {
		o.OnResult(id, series, res)
	}
}

// runner is the run shell of one experiment: every simulated run of
// the package goes through it.
type runner struct {
	id  string
	opt Options
}

// try runs one config with the observability options applied and
// reports the Result to OnResult under label.
func (r runner) try(label string, cfg core.Config) (*core.Result, error) {
	r.opt.instrument(&cfg)
	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	r.opt.notify(r.id, label, res)
	return res, nil
}

// run is try for the configs an experiment declares itself: an error
// there is a bug in the declaration, so it panics naming the run.
func (r runner) run(label string, cfg core.Config) *core.Result {
	res, err := r.try(label, cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s/%s: %v", r.id, label, err))
	}
	return res
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// metrics computes every named per-run column of the cluster tables
// from one run's Result. A table declares its columns by name and pick
// fills them; some quantities go by several names, one per table that
// reports them.
var metrics = map[string]func(*core.Result) float64{
	"read_mean_ms":         func(r *core.Result) float64 { return r.Recorder.Reads().Mean() / 1e6 },
	"read_p99_ms":          readP99,
	"p99_ms":               readP99,
	"p999_ms":              func(r *core.Result) float64 { return ms(r.Recorder.Reads().P999()) },
	"kiops":                func(r *core.Result) float64 { return r.Recorder.Throughput() / 1000 },
	"write_amp":            func(r *core.Result) float64 { return r.WriteAmp },
	"degraded":             func(r *core.Result) float64 { return float64(r.DegradedReads) },
	"degraded_post_repair": func(r *core.Result) float64 { return float64(r.DegradedReadsPostRepair) },
	"local_degraded":       func(r *core.Result) float64 { return float64(r.LocalDegradedReads) },
	"lost_reads":           func(r *core.Result) float64 { return float64(r.LostReads) },
	"unrecov_stripes":      func(r *core.Result) float64 { return float64(r.UnrecoverableStripes) },
	"repaired":             func(r *core.Result) float64 { return float64(r.RepairedStripes) },
	"repair_pending":       repairPending,
	"pending":              repairPending,
	"local_repair":         func(r *core.Result) float64 { return float64(r.LocalRepairStripes) },
	"agg_repair":           func(r *core.Result) float64 { return float64(r.AggregatedRepairStripes) },
	"reintegrated_stripes": func(r *core.Result) float64 { return float64(r.ReintegratedStripes) },
	"restored_holders":     func(r *core.Result) float64 { return float64(r.RestoredHolders) },
	"server_revivals":      func(r *core.Result) float64 { return float64(r.ServerRevivals) },
	"tor_revivals":         func(r *core.Result) float64 { return float64(r.ToRRevivals) },
	"handoffs":             func(r *core.Result) float64 { return float64(r.Switch.Handoffs) },
	"cross_repair_mb":      repairMB,
	"repair_cross_mb":      repairMB,
	"repair_mb":            repairMB,
	"repair_mb_offered":    func(r *core.Result) float64 { return float64(r.CrossRackRepairBytesOffered) / 1e6 },
	"fg_cross_mb":          foregroundMB,
	"fg_mb":                foregroundMB,
	"spine_util":           func(r *core.Result) float64 { return r.SpineUtilization },
	"viol_frac":            sloViolations,
	"slo_viol_frac":        sloViolations,
	"repair_done_ms":       func(r *core.Result) float64 { return ms(r.RepairCompletionTime) },
	"final_rate_mbps": func(r *core.Result) float64 {
		if n := len(r.RepairRateTimeline); n > 0 {
			return r.RepairRateTimeline[n-1].MBps
		}
		return 0
	},
	// Spine chunks shipped per repaired stripe: the per-stripe cross-rack
	// cost of rebuilding one lost chunk (RS fetches most of its k sources
	// remotely; aggregation caps the count at the remote rack count).
	"cross_chunks_per_stripe": func(r *core.Result) float64 {
		if r.RepairedStripes == 0 {
			return 0
		}
		pageMB := float64(r.Config.Geometry.PageSize) / 1e6
		return float64(r.CrossRackRepairBytes) / 1e6 / (pageMB * float64(r.RepairedStripes))
	},
}

func readP99(r *core.Result) float64       { return ms(r.Recorder.Reads().P99()) }
func repairPending(r *core.Result) float64 { return float64(r.RepairPending) }
func repairMB(r *core.Result) float64      { return float64(r.CrossRackRepairBytes) / 1e6 }
func foregroundMB(r *core.Result) float64  { return float64(r.ForegroundCrossRackBytes) / 1e6 }
func sloViolations(r *core.Result) float64 { return r.SLOViolationFraction }

// pick fills the named columns from one run. Columns outside metrics —
// a figure's own derived values, like vs_healthy — are left to the
// caller.
func pick(res *core.Result, cols []string) map[string]float64 {
	v := make(map[string]float64, len(cols))
	for _, c := range cols {
		if f, ok := metrics[c]; ok {
			v[c] = f(res)
		}
	}
	return v
}

// baseConfig is the shared experiment setup (§4.1).
func baseConfig(scale Scale) core.Config {
	cfg := core.DefaultConfig()
	cfg.Duration = scale.duration(cfg.Duration)
	return cfg
}

// point is one x position of a grid axis: its label and the config
// change that runs it.
type point struct {
	x   string
	set func(*core.Config)
}

// mixes are the YCSB read/write splits of Figs. 9-12 and 15-16. Read
// metrics exclude the write-only mix, write metrics the read-only one.
var (
	mixes      = mixAxis(0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0)
	readMixes  = mixes[:len(mixes)-1]
	writeMixes = mixes[1:]
)

func mixAxis(writeFracs ...float64) []point {
	var ps []point
	for _, f := range writeFracs {
		ps = append(ps, point{mixLabel(f), func(c *core.Config) { c.Workload.WriteFrac = f }})
	}
	return ps
}

func mixLabel(writeFrac float64) string {
	return workload.Mix(int(100 - writeFrac*100 + 0.5))
}

// benchBase is the axis of the five BenchBase workloads (Figs. 13-14).
var benchBase = func() []point {
	var ps []point
	for _, name := range workload.Names() {
		ps = append(ps, point{name, func(c *core.Config) {
			c.Workload = core.WorkloadSpec{Name: name, MeanGap: c.Workload.MeanGap}
		}})
	}
	return ps
}()

// grid runs one experiment's (system × x) cells on demand and keeps
// each Result, so the tables projected from one grid run every distinct
// cell once. Each cell is a pure function of its config.
type grid struct {
	r     runner
	scale Scale
	cells map[string]*core.Result
}

func newGrid(r runner, scale Scale) *grid {
	return &grid{r: r, scale: scale, cells: make(map[string]*core.Result)}
}

// table projects one table from the grid: a row per x in xs and per
// system, in that order, filled by values from the cell's Result.
func (g *grid) table(id, title string, cols []string, xs []point,
	values func(*core.Result) map[string]float64) *Table {

	t := &Table{ID: id, Title: title, Cols: cols}
	for _, p := range xs {
		for _, sys := range core.Systems() {
			label := sys.String() + "/" + p.x
			res, ok := g.cells[label]
			if !ok {
				cfg := baseConfig(g.scale)
				cfg.System = sys
				p.set(&cfg)
				res = g.r.run(label, cfg)
				g.cells[label] = res
			}
			t.Rows = append(t.Rows, Row{Series: sys.String(), X: p.x, Values: values(res)})
		}
	}
	return t
}

// normalized projects one metric as "value" and "norm_vs_vdc", the
// value over VDC's at the same x (VDC is the first system at every x).
func (g *grid) normalized(id, title string, xs []point, metric func(*core.Result) float64) *Table {
	var vdc float64
	return g.table(id, title, []string{"value", "norm_vs_vdc"}, xs, func(res *core.Result) map[string]float64 {
		v := metric(res)
		if res.System == core.VDC {
			vdc = v
		}
		norm := 0.0
		if vdc > 0 {
			norm = v / vdc
		}
		return map[string]float64{"value": v, "norm_vs_vdc": norm}
	})
}

// latencyPair declares a figure's read (a) and write (b) panels of one
// latency statistic, normalized to VDC, over one grid.
func latencyPair(fig, stat, over string, reads, writes []point, of func(stats.Dist) float64) func(runner, Scale) []*Table {
	return func(r runner, scale Scale) []*Table {
		g := newGrid(r, scale)
		return []*Table{
			g.normalized(fig+"a", stat+" read latency (ms), "+over, reads,
				func(res *core.Result) float64 { return of(res.Recorder.Reads()) }),
			g.normalized(fig+"b", stat+" write latency (ms), "+over, writes,
				func(res *core.Result) float64 { return of(res.Recorder.Writes()) }),
		}
	}
}

// throughput declares a figure of every cell's KIOPS over one axis.
func throughput(id, over string, xs []point) func(runner, Scale) []*Table {
	return func(r runner, scale Scale) []*Table {
		cols := []string{"kiops"}
		return []*Table{newGrid(r, scale).table(id, "Throughput (KIOPS), "+over, cols, xs,
			func(res *core.Result) map[string]float64 { return pick(res, cols) })}
	}
}

// table2 reproduces the workload table.
func table2(runner, Scale) []*Table {
	t := &Table{ID: "Table2", Title: "Workloads used in the evaluation", Cols: []string{"write_pct"}}
	for _, row := range workload.Table2() {
		pct := row.WritePct
		label := row.Name
		if pct < 0 {
			pct = 0 // YCSB is configurable 0-100%
			label = "YCSB (0-100%)"
		}
		t.Rows = append(t.Rows, Row{Series: label, X: row.Description,
			Values: map[string]float64{"write_pct": pct}})
	}
	return []*Table{t}
}

// fig15: P99.9 latency breakdown — storage-only vs end-to-end.
func fig15(r runner, scale Scale) []*Table {
	g := newGrid(r, scale)
	cols := []string{"total", "storage"}
	breakdown := func(total, storage stats.Dist) map[string]float64 {
		return map[string]float64{"total": ms(total.P999()), "storage": ms(storage.P999())}
	}
	return []*Table{
		g.table("Fig15a", "P99.9 read latency breakdown (ms)", cols, readMixes,
			func(res *core.Result) map[string]float64 {
				return breakdown(res.Recorder.Reads(), res.Recorder.ReadStorage())
			}),
		g.table("Fig15b", "P99.9 write latency breakdown (ms)", cols, writeMixes,
			func(res *core.Result) map[string]float64 {
				return breakdown(res.Recorder.Writes(), res.Recorder.WriteStorage())
			}),
	}
}

// tailCols are the read-tail CDF columns of Figs. 16, 19 and 21.
var tailCols = []string{"p98.5", "p99", "p99.5", "p99.9"}

// tail reads one run's read latency at the tailCols percentiles.
func tail(res *core.Result) map[string]float64 {
	pts := res.Recorder.Reads().TailCDF()
	v := make(map[string]float64, len(tailCols))
	for i, c := range tailCols {
		v[c] = ms(pts[i].Latency)
	}
	return v
}

// fig16: cumulative distribution of read latency (P98.5..P99.9) per mix.
func fig16(r runner, scale Scale) []*Table {
	return []*Table{newGrid(r, scale).table("Fig16", "Read latency tail CDF (ms)", tailCols, readMixes, tail)}
}

// coordPoint is one base-vs-coordinated pair of Figs. 17-18: the
// scheduler it names, the YCSB write fraction, and the config knob that
// selects the scheduler.
type coordPoint struct {
	name string
	mix  float64
	set  func(*core.Config)
}

// coordSweep runs RackBlox at each point with coordinated I/O forced
// off, then on, and reports P99.9 reads and the coordinated run's
// speedup over its base.
func coordSweep(r runner, scale Scale, id, title string, points []coordPoint) []*Table {
	t := &Table{ID: id, Title: title, Cols: []string{"value", "speedup_vs_base"}}
	for _, p := range points {
		var base float64
		for _, coord := range []bool{false, true} {
			cfg := baseConfig(scale)
			cfg.System = core.RackBlox
			p.set(&cfg)
			cfg.Workload.WriteFrac = p.mix
			name := p.name
			cfg.CoordinatedOverride = -1
			if coord {
				name = "RackBlox (" + p.name + ")"
				cfg.CoordinatedOverride = 1
			}
			v := ms(r.run(name+"/"+mixLabel(p.mix), cfg).Recorder.Reads().P999())
			if !coord {
				base = v
			}
			sp := 0.0
			if v > 0 && base > 0 {
				sp = base / v
			}
			t.Rows = append(t.Rows, Row{Series: name, X: mixLabel(p.mix),
				Values: map[string]float64{"value": v, "speedup_vs_base": sp}})
		}
	}
	return []*Table{t}
}

// fig17: coordinated I/O under different storage schedulers, P99.9 reads.
func fig17(r runner, scale Scale) []*Table {
	var points []coordPoint
	for _, mix := range []float64{0.2, 0.5} {
		for _, pol := range []sched.Policy{sched.FIFO, sched.Deadline, sched.Kyber} {
			points = append(points, coordPoint{pol.String(), mix, func(c *core.Config) { c.SchedPolicy = pol }})
		}
	}
	return coordSweep(r, scale, "Fig17", "P99.9 read latency (ms) by storage scheduler", points)
}

// fig18: coordinated I/O under different network schedulers, P99.9 reads.
func fig18(r runner, scale Scale) []*Table {
	var points []coordPoint
	for _, q := range []string{"FQ", "Priority", "TB"} {
		for _, mix := range []float64{0.2, 0.5} {
			points = append(points, coordPoint{q, mix, func(c *core.Config) { c.Qdisc = q }})
		}
	}
	return coordSweep(r, scale, "Fig18", "P99.9 read latency (ms) by network scheduler", points)
}

// profilePair is one SSD x network combination of Figs. 19-20.
type profilePair struct {
	name string
	dev  flash.Profile
	net  netsim.Profile
}

// profilePairs lists every SSD x network combination, devices outer.
func profilePairs() []profilePair {
	var ps []profilePair
	for _, dev := range []flash.Profile{flash.ProfileOptane(), flash.ProfileIntelDC(), flash.ProfilePSSD()} {
		for _, net := range netProfiles() {
			ps = append(ps, profilePair{dev.Name + "+" + net.Name, dev, net})
		}
	}
	return ps
}

func netProfiles() []netsim.Profile {
	return []netsim.Profile{netsim.ProfileFast(), netsim.ProfileMedium(), netsim.ProfileSlow()}
}

// profileRun runs one system on one SSD x network pair at a YCSB write
// fraction.
func profileRun(r runner, scale Scale, label string, sys core.System, pp profilePair, writeFrac float64) *core.Result {
	cfg := baseConfig(scale)
	cfg.System = sys
	cfg.Device = pp.dev
	cfg.Net = pp.net
	cfg.Workload.WriteFrac = writeFrac
	return r.run(label, cfg)
}

// fig19: read tail CDF of YCSB-A for every SSD x network combination.
func fig19(r runner, scale Scale) []*Table {
	t := &Table{ID: "Fig19", Title: "YCSB-A read tail (ms), SSD x network grid", Cols: tailCols}
	for _, pp := range profilePairs() {
		for _, sys := range []core.System{core.VDC, core.RackBlox} {
			res := profileRun(r, scale, sys.String()+"/"+pp.name, sys, pp, 0.5) // YCSB-A
			t.Rows = append(t.Rows, Row{Series: sys.String(), X: pp.name, Values: tail(res)})
		}
	}
	return []*Table{t}
}

// fig20: P99.9 read speedup of RackBlox over VDC for YCSB-A/B/C across
// the device x network grid.
func fig20(r runner, scale Scale) []*Table {
	t := &Table{ID: "Fig20", Title: "P99.9 read speedup vs VDC (x)", Cols: []string{"speedup"}}
	ycsbs := []struct {
		name string
		frac float64
	}{{"YCSB-A", 0.5}, {"YCSB-B", 0.05}, {"YCSB-C", 0.0}}
	for _, y := range ycsbs {
		for _, pp := range profilePairs() {
			p999 := func(sys core.System) int64 {
				label := pp.name + "/" + y.name + "/" + sys.String()
				return profileRun(r, scale, label, sys, pp, y.frac).Recorder.Reads().P999()
			}
			vdc := p999(core.VDC)
			rb := p999(core.RackBlox)
			t.Rows = append(t.Rows, Row{Series: pp.name, X: y.name,
				Values: map[string]float64{"speedup": stats.Speedup(vdc, rb)}})
		}
	}
	return []*Table{t}
}

// fig21: software- vs hardware-isolated vSSD read tails (YCSB 50/50).
func fig21(r runner, scale Scale) []*Table {
	t := &Table{ID: "Fig21", Title: "Read tail (ms) by isolation class", Cols: tailCols}
	for _, swIso := range []bool{true, false} {
		x := "HW-Isolated"
		if swIso {
			x = "SW-Isolated"
		}
		for _, sys := range []core.System{core.VDC, core.RackBlox} {
			cfg := baseConfig(scale)
			cfg.System = sys
			cfg.SoftwareIsolated = swIso
			cfg.VSSDPairs = 2
			cfg.Workload.WriteFrac = 0.5
			res := r.run(sys.String()+"/"+x, cfg)
			t.Rows = append(t.Rows, Row{Series: sys.String(), X: x, Values: tail(res)})
		}
	}
	return []*Table{t}
}

// fig22: per-server wear imbalance after one and two years, with and
// without swapping.
func fig22(runner, Scale) []*Table {
	t := &Table{ID: "Fig22", Title: "Per-server wear imbalance (max/avg)",
		Cols: []string{"imbalance_mean", "imbalance_max"}}
	for _, years := range []int{1, 2} {
		for _, swap := range []bool{false, true} {
			cfg := wear.DefaultConfig()
			if !swap {
				cfg.LocalPeriodDays = 0
				cfg.GlobalPeriodDays = 0
			}
			r, err := wear.New(cfg)
			if err != nil {
				panic(err)
			}
			r.RunWeeks(52 * years)
			var vals []float64
			for s := 0; s < cfg.Servers; s++ {
				vals = append(vals, r.ServerImbalance(s))
			}
			sort.Float64s(vals)
			mean := 0.0
			for _, v := range vals {
				mean += v
			}
			mean /= float64(len(vals))
			series := "No Swap"
			if swap {
				series = "RackBlox"
			}
			t.Rows = append(t.Rows, Row{Series: series, X: fmt.Sprintf("after %d year(s)", years),
				Values: map[string]float64{"imbalance_mean": mean, "imbalance_max": vals[len(vals)-1]}})
		}
	}
	return []*Table{t}
}

// fig23: rack-scale wear imbalance over 80 weeks for several global swap
// periods.
func fig23(runner, Scale) []*Table {
	t := &Table{ID: "Fig23", Title: "Rack wear imbalance over time (max/avg)",
		Cols: []string{"week16", "week32", "week48", "week64", "week80"}}
	configs := []struct {
		series string
		period int
	}{
		{"No Swap", 0},
		{"RB-Swap per 4 Weeks", 28},
		{"RB-Swap per 8 Weeks", 56},
		{"RB-Swap per 12 Weeks", 84},
	}
	for _, c := range configs {
		cfg := wear.DefaultConfig()
		cfg.GlobalPeriodDays = c.period
		if c.period == 0 {
			cfg.LocalPeriodDays = 0
		}
		r, err := wear.New(cfg)
		if err != nil {
			panic(err)
		}
		vals := map[string]float64{}
		for w := 1; w <= 80; w++ {
			r.RunWeeks(1)
			switch w {
			case 16, 32, 48, 64, 80:
				vals[fmt.Sprintf("week%d", w)] = r.RackImbalance()
			}
		}
		t.Rows = append(t.Rows, Row{Series: c.series, X: "80 weeks", Values: vals})
	}
	return []*Table{t}
}

// predictorAccuracy validates the §3.4 sliding-window predictor against
// the three network regimes.
func predictorAccuracy(runner, Scale) []*Table {
	t := &Table{ID: "Predictor", Title: "Return-latency predictor accuracy",
		Cols: []string{"hit_rate", "worst_rel_err"}}
	for _, prof := range netProfiles() {
		n := netsim.New(prof, sim.NewRNG(11))
		p := predictor.NewLatency(predictor.DefaultWindow)
		var acc predictor.Accuracy
		tol := 25 * sim.Microsecond
		if m := sim.Time(prof.MedianNS); m > tol {
			tol = m
		}
		now := sim.Time(0)
		for i := 0; i < predictor.DefaultWindow; i++ {
			p.Observe(false, n.HopLatency(now))
			now += 50 * sim.Microsecond
		}
		for i := 0; i < 50000; i++ {
			actual := n.HopLatency(now)
			acc.Record(p.Predict(false), actual, tol)
			p.Observe(false, actual)
			now += 50 * sim.Microsecond
		}
		t.Rows = append(t.Rows, Row{Series: prof.Name, X: "50k packets",
			Values: map[string]float64{"hit_rate": acc.HitRate(), "worst_rel_err": acc.WorstRel}})
	}
	return []*Table{t}
}

// gcAblation compares redirect-only against the full delay+background
// coordinated GC, a design-choice ablation beyond the paper's figures.
func gcAblation(r runner, scale Scale) []*Table {
	t := &Table{ID: "GCAblation", Title: "Coordinated GC ablation, P99.9 reads (ms)",
		Cols: []string{"value", "gc_events", "delayed"}}
	type variant struct {
		name string
		soft float64 // soft threshold; == gc threshold disables delaying
	}
	cfgBase := baseConfig(scale)
	for _, v := range []variant{
		{"redirect-only", cfgBase.GCThreshold + 0.001},
		{"redirect+delay", cfgBase.SoftThreshold},
	} {
		cfg := baseConfig(scale)
		cfg.System = core.RackBlox
		cfg.SoftThreshold = v.soft
		res := r.run(v.name, cfg)
		t.Rows = append(t.Rows, Row{Series: v.name, X: "YCSB 50/50",
			Values: map[string]float64{
				"value":     ms(res.Recorder.Reads().P999()),
				"gc_events": float64(res.GCEvents),
				"delayed":   float64(res.GCDelayed),
			}})
	}
	return []*Table{t}
}

// figEC compares the two redundancy backends — 2-way Hermes replication
// and RS(4,2) erasure coding — on an identical six-server rack, opening
// the replication-vs-EC experiment axis beyond the paper: read tails
// (degraded reads reconstruct around collectors and failures), the
// redundancy write cost (2x replicated sub-writes vs 1+m chunk
// sub-writes), and behavior under a GC storm and under m server crashes.
func figEC(r runner, scale Scale) []*Table {
	t := &Table{ID: "FigEC", Title: "Replication vs RS(4,2): read tail, write cost, degraded reads",
		Cols: []string{"p99_ms", "p999_ms", "kiops", "write_amp", "degraded", "lost_reads"}}
	type scenario struct {
		name     string
		workload core.WorkloadSpec
		failTwo  bool
	}
	base := core.DefaultConfig()
	scenarios := []scenario{
		{"YCSB 50/50", core.WorkloadSpec{Name: "YCSB", WriteFrac: 0.5, MeanGap: base.Workload.MeanGap}, false},
		{"GC storm (Twitter)", core.WorkloadSpec{Name: "Twitter", MeanGap: base.Workload.MeanGap}, false},
		{"YCSB + 2 crashes", core.WorkloadSpec{Name: "YCSB", WriteFrac: 0.5, MeanGap: base.Workload.MeanGap}, true},
	}
	specs := []core.RedundancySpec{core.Replication(), core.ErasureCode(4, 2)}
	for _, sc := range scenarios {
		for _, red := range specs {
			cfg := baseConfig(scale)
			cfg.System = core.RackBlox
			cfg.StorageServers = 6 // RS(4,2) spreads each stripe over six servers
			cfg.Redundancy = red
			cfg.Workload = sc.workload
			if sc.failTwo {
				at := cfg.Warmup + cfg.Duration/4
				cfg.Scenario = []core.Event{core.FailServer(0, at), core.FailServer(1, at)}
			}
			res := r.run(red.String()+"/"+sc.name, cfg)
			t.Rows = append(t.Rows, Row{Series: red.String(), X: sc.name, Values: pick(res, t.Cols)})
		}
	}
	return []*Table{t}
}

// clusterConfig is the multi-rack cluster of the cluster experiments:
// RackBlox on Options.Racks racks of six servers with three vSSD pairs,
// RS(4,2), and a spine of Options.CrossBWMBps (default 200 MB/s). Spread
// RS(4,2) needs at least ceil((k+m)/m) = 3 fault domains, so Racks
// values below 3 are raised to 3.
func clusterConfig(scale Scale, opt Options) core.Config {
	cfg := baseConfig(scale)
	cfg.System = core.RackBlox
	cfg.Racks = max(opt.Racks, 3)
	cfg.StorageServers = 6 // compact placement needs k+m servers in one rack
	cfg.VSSDPairs = 3
	cfg.Redundancy = core.ErasureCode(4, 2)
	cfg.CrossRackMBps = opt.CrossBWMBps
	if cfg.CrossRackMBps <= 0 {
		cfg.CrossRackMBps = 200
	}
	return cfg
}

// figMR compares single-rack (compact) against multi-rack (spread)
// RS(4,2) placement on the same cluster — three racks of six servers
// under a spine link — healthy and under a whole-rack failure. Compact
// placement confines each stripe to one rack: the rack crash erases
// whole groups (lost reads, unrecoverable stripes). Spread placement
// caps every rack at m chunks per stripe, so the same crash leaves every
// stripe >= k chunks: reads complete degraded, and the repair traffic
// that rebuilds the lost chunks is metered on the finite cross-rack
// link (cross_repair_mb, bounded by the configured bandwidth;
// spine_util is the link's busy fraction).
func figMR(r runner, scale Scale) []*Table {
	t := &Table{ID: "FigMR",
		Title: "Single-rack vs multi-rack RS(4,2) placement under rack failure",
		Cols: []string{"p99_ms", "kiops", "degraded", "lost_reads",
			"unrecov_stripes", "cross_repair_mb", "spine_util", "handoffs"}}
	placements := []struct {
		series string
		mode   core.PlacementMode
	}{
		{"single-rack (compact)", core.PlacementCompact},
		{"multi-rack (spread)", core.PlacementSpread},
	}
	for _, sc := range []struct {
		name     string
		failRack bool
	}{{"healthy", false}, {"rack 0 crash", true}} {
		for _, pl := range placements {
			cfg := clusterConfig(scale, r.opt)
			cfg.Placement = pl.mode
			if sc.failRack {
				cfg.Scenario = []core.Event{core.FailRack(0, cfg.Warmup+cfg.Duration/4)}
			}
			res := r.run(pl.series+"/"+sc.name, cfg)
			t.Rows = append(t.Rows, Row{Series: pl.series, X: sc.name, Values: pick(res, t.Cols)})
		}
	}
	return []*Table{t}
}

// rlTimeline fixes the recovery-lifecycle instants (absolute virtual
// times, deliberately not scaled: repair and revival need real room to
// finish; Scale only shrinks the measured windows).
const (
	rlFailAt   = 120 * sim.Millisecond
	rlReviveAt = 300 * sim.Millisecond
	// rlHealedBy is when the cluster is expected back to full health:
	// detection (~30ms) + chunk reconstruction + re-integration for the
	// crash scenarios, revival + table replay for the ToR scenario. The
	// figrl test asserts the expectation via the lifecycle counters.
	rlHealedBy = 500 * sim.Millisecond
)

// rlConfig is the recovery-lifecycle cluster: the cluster config with
// spread placement, Optane-class devices so background reconstruction
// completes well inside the simulated horizon, and a read-leaning mix
// so GC idle windows admit repair promptly.
func rlConfig(scale Scale, opt Options) core.Config {
	cfg := clusterConfig(scale, opt)
	cfg.Placement = core.PlacementSpread
	cfg.Device = flash.ProfileOptane()
	cfg.Workload.WriteFrac = 0.2
	cfg.KeyspaceFrac = 0.25
	// A generous client window keeps the group issuing while requests
	// stuck on a freshly-crashed holder wait out their timeouts;
	// otherwise the default window clogs and the degraded phase shows
	// timeout stalls instead of degraded service.
	cfg.MaxClientInflight = 256
	return cfg
}

// phase is one measured window of a lifecycle figure: its row label, the
// window start (Warmup), and the scenario timeline it runs.
type phase struct {
	series, x string
	measure   sim.Time
	events    []core.Event
}

// lifecycle runs every phase on the recovery-lifecycle cluster and fills
// cols for each. Every phase measures the same-length window, so
// latencies compare across phases; vs_healthy is a phase's mean read
// latency over the healthy phase's (every lifecycle figure reports
// read_mean_ms and runs its healthy baseline first).
func lifecycle(r runner, scale Scale, id, title string, cols []string, phases []phase) []*Table {
	t := &Table{ID: id, Title: title, Cols: cols}
	window := scale.duration(300 * sim.Millisecond)
	var healthyMean float64
	for _, ph := range phases {
		cfg := rlConfig(scale, r.opt)
		cfg.Warmup = ph.measure
		cfg.Duration = window
		cfg.Scenario = ph.events
		v := pick(r.run(ph.series+"/"+ph.x, cfg), cols)
		mean := v["read_mean_ms"]
		if ph.series == "healthy" {
			healthyMean = mean
		}
		v["vs_healthy"] = 0
		if healthyMean > 0 {
			v["vs_healthy"] = mean / healthyMean
		}
		t.Rows = append(t.Rows, Row{Series: ph.series, X: ph.x, Values: v})
	}
	return []*Table{t}
}

// figRL traces the recovery lifecycle — fail, repair, re-integrate,
// revive — and shows the co-design closing the loop: after the
// reconstructor rebuilds a crashed server's chunks and re-registers the
// replacement holder in the ToR stripe tables, reads stop paying the
// degraded-reconstruction cost (degraded_post_repair == 0) and the read
// latency of the post-repair window returns to the healthy baseline
// (vs_healthy ~ 1); likewise a revived ToR resumes direct service after
// its stripe table is replayed from survivors. Foreground cross-rack
// traffic (fg_cross_mb) is metered on the same spine as repair traffic
// (repair_cross_mb) and reported separately.
func figRL(r runner, scale Scale) []*Table {
	crash := []core.Event{core.FailServer(0, rlFailAt)}
	darken := []core.Event{core.FailToR(1, rlFailAt)}
	revive := []core.Event{core.FailToR(1, rlFailAt), core.ReviveToR(1, rlReviveAt)}
	return lifecycle(r, scale, "FigRL", "Recovery lifecycle: fail -> repair -> re-integrate -> revive",
		[]string{"read_mean_ms", "read_p99_ms", "vs_healthy", "degraded",
			"degraded_post_repair", "reintegrated_stripes", "repair_pending",
			"fg_cross_mb", "repair_cross_mb", "lost_reads", "tor_revivals"},
		[]phase{
			{"healthy", "baseline", rlHealedBy, nil},
			{"server crash", "degraded", rlFailAt, crash},
			{"server crash", "post-repair", rlHealedBy, crash},
			{"tor outage", "dark", rlFailAt, darken},
			{"tor outage+revive", "post-revival", rlHealedBy, revive},
		})
}

// scTimeline fixes the scenario-cycle instants (absolute virtual times,
// deliberately not scaled, like the figrl timeline: repair needs real
// room to finish; Scale only shrinks the measured windows).
const (
	scFailAt   = 120 * sim.Millisecond
	scReviveAt = 300 * sim.Millisecond
	// scHealedBy is when the first cycle is expected fully healed:
	// detection (~30ms), degraded service, then catch-up repair onto the
	// revived blank server and RestoreStripeMember re-registration.
	scHealedBy = 550 * sim.Millisecond
	// scFail2At crashes the same server again after the first heal; its
	// loss now heals the PR-3 way (adopter re-integration), proving the
	// cycle can repeat indefinitely.
	scFail2At   = 650 * sim.Millisecond
	scHealed2By = 1050 * sim.Millisecond
)

// figSC sweeps a scenario timeline the flat failure fields could never
// express: fail -> revive-server -> catch-up -> fail-again. A storage
// server crashes, returns blank mid-run (core.ReviveServer), catches up
// via the metered reconstructor, and is re-registered under its own id
// (switchsim.RestoreStripeMember) — degraded_post_repair is 0 and read
// latency returns to the healthy baseline (vs_healthy ~ 1). The same
// server then crashes again, and the second loss heals through adopter
// re-integration, showing repeated fail/heal cycles compose.
func figSC(r runner, scale Scale) []*Table {
	cycle := []core.Event{
		core.FailServer(0, scFailAt),
		core.ReviveServer(0, scReviveAt),
	}
	again := append(append([]core.Event(nil), cycle...), core.FailServer(0, scFail2At))
	return lifecycle(r, scale, "FigSC", "Scenario timeline: fail -> revive -> catch-up -> fail-again",
		[]string{"read_mean_ms", "read_p99_ms", "vs_healthy", "degraded",
			"degraded_post_repair", "reintegrated_stripes", "restored_holders",
			"server_revivals", "repair_pending", "lost_reads"},
		[]phase{
			{"healthy", "baseline", scHealedBy, nil},
			{"fail+revive", "degraded", scFailAt, cycle},
			{"fail+revive", "post-catch-up", scHealedBy, cycle},
			{"fail-again", "degraded-again", scFail2At, again},
			{"fail-again", "post-heal", scHealed2By, again},
		})
}

// ScenarioSummary runs the recovery-lifecycle cluster under one
// caller-supplied scenario timeline (cmd/rackbench -scenario) and
// tabulates the run's read latencies and lifecycle counters. The
// measured window opens after warmup and spans the whole timeline, so
// every event's effects land in one set of counters. A non-zero
// Options.RepairSLOTarget (-repair-slo) enables the SLO repair pacer
// for the run. repair_done_ms is the instant the last repair batch
// landed, paced or not (0 when no repair ran); slo_viol_frac is the
// controller's violated-tick fraction, 0 when pacing is off.
func ScenarioSummary(events []core.Event, scale Scale, opt Options) (*Table, error) {
	cfg := rlConfig(scale, opt)
	cfg.Warmup = 50 * sim.Millisecond
	cfg.Duration = scale.duration(1000 * sim.Millisecond)
	cfg.Scenario = events
	if opt.RepairSLOTarget > 0 {
		cfg.RepairSLO = core.RepairSLO{TargetP99: opt.RepairSLOTarget}
	}
	res, err := runner{"scenario", opt}.try("run", cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Scenario",
		Title: fmt.Sprintf("Scenario timeline with %d events", len(events)),
		Cols: []string{"read_mean_ms", "read_p99_ms", "degraded",
			"degraded_post_repair", "reintegrated_stripes", "restored_holders",
			"server_revivals", "tor_revivals", "repair_pending", "lost_reads",
			"slo_viol_frac", "repair_done_ms"},
	}
	for _, ev := range events {
		t.Rows = append(t.Rows, Row{Series: "event", X: ev.String(), Values: map[string]float64{}})
	}
	t.Rows = append(t.Rows, Row{Series: "run", X: "whole timeline", Values: pick(res, t.Cols)})
	return t, nil
}

// RedundancySummary runs one YCSB 50/50 benchmark with the chosen
// redundancy backend on a six-server rack and tabulates the headline
// metrics (cmd/rackbench's -redundancy flag).
func RedundancySummary(spec core.RedundancySpec, scale Scale, opt Options) (*Table, error) {
	cfg := baseConfig(scale)
	cfg.StorageServers = 6
	cfg.Redundancy = spec
	if spec.Scheme == core.LocalParityCoded {
		// The LRC family needs rack fault domains and spread placement.
		cfg.System = core.RackBlox
		cfg.Racks = 3
		cfg.Placement = core.PlacementSpread
	}
	res, err := runner{"redundancy", opt}.try(spec.String(), cfg)
	if err != nil {
		return nil, err
	}
	reads, writes := res.Recorder.Reads(), res.Recorder.Writes()
	t := &Table{
		ID:    "Redundancy",
		Title: fmt.Sprintf("YCSB 50/50 with %s", spec),
		Cols:  []string{"p99_ms", "p999_ms", "kiops", "write_amp", "degraded"},
	}
	t.Rows = append(t.Rows,
		Row{Series: spec.String(), X: "reads", Values: map[string]float64{
			"p99_ms": ms(reads.P99()), "p999_ms": ms(reads.P999()),
		}},
		Row{Series: spec.String(), X: "writes", Values: map[string]float64{
			"p99_ms": ms(writes.P99()), "p999_ms": ms(writes.P999()),
		}},
		Row{Series: spec.String(), X: "volume", Values: map[string]float64{
			"kiops":     res.Recorder.Throughput() / 1000,
			"write_amp": res.WriteAmp,
			"degraded":  float64(res.DegradedReads),
		}},
	)
	return t, nil
}

// experiment is one registry entry: an id and the tables it declares
// over its run shell.
type experiment struct {
	id     string
	tables func(runner, Scale) []*Table
}

// registry lists every experiment in the order All reports them.
var registry = []experiment{
	{"table2", table2},
	{"fig9", latencyPair("Fig9", "P99.9", "YCSB mixes", readMixes, writeMixes,
		func(d stats.Dist) float64 { return ms(d.P999()) })},
	{"fig10", latencyPair("Fig10", "P99", "YCSB mixes", readMixes, writeMixes,
		func(d stats.Dist) float64 { return ms(d.P99()) })},
	{"fig11", latencyPair("Fig11", "Average", "YCSB mixes", readMixes, writeMixes,
		func(d stats.Dist) float64 { return d.Mean() / 1e6 })},
	{"fig12", throughput("Fig12", "YCSB mixes", mixes)},
	{"fig13", latencyPair("Fig13", "P99.9", "BenchBase workloads", benchBase, benchBase,
		func(d stats.Dist) float64 { return ms(d.P999()) })},
	{"fig14", throughput("Fig14", "BenchBase workloads", benchBase)},
	{"fig15", fig15},
	{"fig16", fig16},
	{"fig17", fig17},
	{"fig18", fig18},
	{"fig19", fig19},
	{"fig20", fig20},
	{"fig21", fig21},
	{"fig22", fig22},
	{"fig23", fig23},
	{"predictor", predictorAccuracy},
	{"gcablation", gcAblation},
	{"figec", figEC},
	{"figmr", figMR},
	{"figrl", figRL},
	{"figsc", figSC},
	{"figslo", figSLO},
	{"figra", figRA},
}

// All returns every experiment id in order.
func All() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// ByID runs an experiment by its id, returning its tables.
func ByID(id string, scale Scale, opt Options) ([]*Table, error) {
	for _, e := range registry {
		if e.id == id {
			return e.tables(runner{id, opt}, scale), nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}
