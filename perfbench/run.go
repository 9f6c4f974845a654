package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rackblox/internal/core"
	"rackblox/internal/stats"
	"rackblox/internal/trace"
)

// Profiling settings of the traced run. The CPU rate is raised above
// pprof's fixed 100 Hz by setting it before pprof.StartCPUProfile, which
// then reports on standard error that the rate is already set.
const (
	cpuProfileHz  = 1000
	memSampleRate = 4096 // bytes per heap-profile sample
	// tracedShare sizes the traced batch against the timed one: a pair
	// of plain and traced sub-runs costs about three plain sub-runs.
	tracedShare = 3
)

// span is one timed call the benchmark made into the program, in
// nanoseconds since the run started. Spans of one sub-run share its
// parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// CPU is the process CPU time spent inside the span, where measured.
	CPU int64 `json:"cpu_ns,omitempty"`
}

type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(l.t0))})
	return len(l.spans)
}

func (l *spanLog) end(id int) time.Duration {
	s := &l.spans[id-1]
	s.End = int64(time.Since(l.t0))
	return time.Duration(s.End - s.Start)
}

// total sums the durations of every span with this name.
func (l *spanLog) total(name string) time.Duration {
	var d time.Duration
	for _, s := range l.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// subRun is one measured simulation. Its Result is kept without the
// latency samples, which are pooled into the batch.
type subRun struct {
	res *core.Result
	// setup and run are the host CPU time (user and system, every
	// thread) of core.NewRack and Rack.Run; runWall is Rack.Run's wall
	// time. CPU time leaves out the time a shared host's hypervisor
	// gives this VM's CPUs to other tenants.
	setup, run, runWall time.Duration
	rssMB               float64 // peak resident memory over set-up and run
	mallocs             uint64
	allocBytes          uint64
	completed           int64
	throughput          float64
	digest              [32]byte
}

// attempted counts the requests of the measured window: completed ones
// plus those the client gave up on.
func (r *subRun) attempted() int64 { return r.completed + r.res.LostRequests }

// profiler collects the traced run's CPU samples and sampled
// allocations per module.
type profiler struct {
	cpu    map[string]float64
	allocs map[string]float64
}

type batch struct {
	log  *spanLog
	runs []*subRun
	// pool holds the completed-request latencies of every absorbed
	// sub-run, spilled to a file so that they stay out of the heap, and
	// out of the peak RSS, of the sub-runs measured after them.
	pool      *os.File
	poolW     *bufio.Writer
	reads     int64
	writes    int64
	readParts [4]float64 // summed read net_in, queue, device, net_out
	// failed holds each failed check; failedRuns the sub-runs they hit.
	failed     []string
	failedRuns map[int64]bool
}

func newBatch(tmpDir string) (*batch, error) {
	f, err := os.CreateTemp(tmpDir, "perfbench-pool-*")
	if err != nil {
		return nil, fmt.Errorf("latency pool: %w", err)
	}
	return &batch{log: &spanLog{t0: time.Now()}, pool: f, poolW: bufio.NewWriterSize(f, 1<<16),
		failedRuns: map[int64]bool{}}, nil
}

// close removes the pool file.
func (b *batch) close() {
	b.pool.Close()
	os.Remove(b.pool.Name())
}

// fail records a failed check of the sub-run with this seed.
func (b *batch) fail(seed int64, format string, args ...any) {
	b.failed = append(b.failed, fmt.Sprintf("seed %d: ", seed)+fmt.Sprintf(format, args...))
	b.failedRuns[seed] = true
}

// measure builds and runs one rack. With prof set, the run (not the
// set-up) is CPU- and heap-profiled.
func (b *batch) measure(cfg core.Config, parent int, prof *profiler) (*subRun, error) {
	resetPeakRSS()
	c0 := cpuTime()
	sp := b.log.begin("core.NewRack", parent)
	rack, err := core.NewRack(cfg)
	b.log.end(sp)
	setup := cpuTime() - c0
	b.log.spans[sp-1].CPU = int64(setup)
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", cfg.Seed, err)
	}
	var heapBefore map[[32]uintptr]runtime.MemProfileRecord
	var cpu bytes.Buffer
	rate := runtime.MemProfileRate
	if prof != nil {
		heapBefore = heapProfile()
		runtime.MemProfileRate = memSampleRate
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	} else {
		runtime.GC()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c1 := cpuTime()
	sp = b.log.begin("core.Rack.Run", parent)
	res := rack.Run()
	wall := b.log.end(sp)
	run := cpuTime() - c1
	b.log.spans[sp-1].CPU = int64(run)
	runtime.ReadMemStats(&m1)
	r := &subRun{res: res, setup: setup, run: run, runWall: wall, rssMB: peakRSSMB(),
		mallocs: m1.Mallocs - m0.Mallocs, allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		completed: int64(res.Recorder.Len())}
	if prof != nil {
		pprof.StopCPUProfile()
		runtime.MemProfileRate = rate
		for m, v := range allocShares(heapBefore, heapProfile(), memSampleRate) {
			prof.allocs[m] += v
		}
		if err := cpuSamples(cpu.Bytes(), prof.cpu); err != nil {
			return nil, err
		}
	}
	r.digest, err = simDigest(res)
	if err != nil {
		return nil, err
	}
	b.checkResult(res)
	return r, nil
}

// absorb summarizes a sub-run through the stats package, spills its
// latencies to the pool, and drops its samples.
func (b *batch) absorb(r *subRun, parent int) error {
	sp := b.log.begin("stats.summarize", parent)
	defer b.log.end(sp)
	rec, seed := r.res.Recorder, r.res.Config.Seed
	reads, writes := rec.Reads(), rec.Writes()
	r.throughput = rec.Throughput()
	if reads.Len()+writes.Len() != rec.Len() {
		b.fail(seed, "%d reads + %d writes != %d completed", reads.Len(), writes.Len(), rec.Len())
	}
	var own []int64
	var buf [8]byte
	for _, s := range stats.RawSamples(rec) {
		// Latencies are non-negative; the low bit tags writes.
		binary.LittleEndian.PutUint64(buf[:], uint64(s.Total)<<1|bit(s.Write))
		if _, err := b.poolW.Write(buf[:]); err != nil {
			return fmt.Errorf("latency pool: %w", err)
		}
		if s.Write {
			b.writes++
			continue
		}
		b.reads++
		b.readParts[0] += float64(s.NetIn)
		b.readParts[1] += float64(s.Queue)
		b.readParts[2] += float64(s.Device)
		b.readParts[3] += float64(s.NetOut)
		if len(b.runs) == 0 {
			own = append(own, s.Total)
		}
	}
	if len(b.runs) == 0 {
		// The pooled percentile must agree with the stats package on a
		// single sub-run.
		slices.Sort(own)
		if got, want := percentile(own, 99.9), reads.P999(); got != want {
			b.fail(seed, "read p99.9 %d ns != stats %d ns", got, want)
		}
	}
	r.res.Recorder = nil
	b.runs = append(b.runs, r)
	return nil
}

// pooled reads the pool back as sorted read and write latencies.
func (b *batch) pooled() (reads, writes []int64, err error) {
	if err := b.poolW.Flush(); err != nil {
		return nil, nil, fmt.Errorf("latency pool: %w", err)
	}
	data, err := os.ReadFile(b.pool.Name())
	if err != nil {
		return nil, nil, fmt.Errorf("latency pool: %w", err)
	}
	reads, writes = make([]int64, 0, b.reads), make([]int64, 0, b.writes)
	for i := 0; i+8 <= len(data); i += 8 {
		v := binary.LittleEndian.Uint64(data[i:])
		if v&1 == 1 {
			writes = append(writes, int64(v>>1))
		} else {
			reads = append(reads, int64(v>>1))
		}
	}
	if int64(len(reads)) != b.reads || int64(len(writes)) != b.writes {
		return nil, nil, fmt.Errorf("latency pool: read back %d+%d samples, wrote %d+%d",
			len(reads), len(writes), b.reads, b.writes)
	}
	slices.Sort(reads)
	slices.Sort(writes)
	return reads, writes, nil
}

// percentile is stats.Dist's nearest-rank percentile over sorted values.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := max(1, int(math.Ceil(p/100*float64(len(sorted))-1e-9)))
	return sorted[rank-1]
}

// checkResult applies the output checks every Result must pass.
func (b *batch) checkResult(res *core.Result) {
	seed := res.Config.Seed
	if res.CrossRackRepairBytes > res.CrossRackRepairBytesOffered {
		b.fail(seed, "spine repair bytes delivered %d > offered %d",
			res.CrossRackRepairBytes, res.CrossRackRepairBytesOffered)
	}
	if res.ForegroundCrossRackBytes > res.ForegroundCrossRackBytesOffered {
		b.fail(seed, "spine foreground bytes delivered %d > offered %d",
			res.ForegroundCrossRackBytes, res.ForegroundCrossRackBytesOffered)
	}
	if !(res.SpineUtilization >= 0 && res.SpineUtilization <= 1) {
		b.fail(seed, "spine utilization %g outside [0, 1]", res.SpineUtilization)
	}
	if res.RepairPending != 0 {
		b.fail(seed, "%d repair batches pending after the drain", res.RepairPending)
	}
	if res.UnrecoverableStripes != 0 {
		b.fail(seed, "%d unrecoverable stripes", res.UnrecoverableStripes)
	}
	if res.LostReads > res.LostRequests {
		b.fail(seed, "%d lost reads > %d lost requests", res.LostReads, res.LostRequests)
	}
	if res.Recorder.Len() == 0 {
		b.fail(seed, "no request completed")
	}
}

// simDigest hashes every simulated outcome of a Result: the counters
// (with the observer outputs left out) and each latency sample.
func simDigest(res *core.Result) ([32]byte, error) {
	c := *res
	c.Recorder, c.Trace, c.TailAttribution, c.Timelines = nil, nil, nil, nil
	c.Config.Trace = trace.Options{}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(&c); err != nil {
		return [32]byte{}, fmt.Errorf("digest: %w", err)
	}
	var buf [6 * 8]byte
	for _, s := range stats.RawSamples(res.Recorder) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(s.Total))
		binary.LittleEndian.PutUint64(buf[8:], uint64(s.NetIn))
		binary.LittleEndian.PutUint64(buf[16:], uint64(s.Queue))
		binary.LittleEndian.PutUint64(buf[24:], uint64(s.Device))
		binary.LittleEndian.PutUint64(buf[32:], uint64(s.NetOut))
		binary.LittleEndian.PutUint64(buf[40:], bit(s.Write)|bit(s.Redirected)<<1)
		h.Write(buf[:])
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

func bit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

type result struct {
	out          output
	spans        []span
	failedChecks []string
}

// runWorkload runs one benchmark invocation and writes a readable report
// to report. Plain mode measures the batch for the end-to-end metrics and
// re-runs its first seed to check determinism; traced mode pairs each
// sub-run with a profiled, flight-recorded twin for the per-layer metrics.
// tmpDir holds the latency pool while the run lasts.
func runWorkload(w workload, seed int64, seconds float64, traced bool, tmpDir string, report io.Writer) (*result, error) {
	b, err := newBatch(tmpDir)
	if err != nil {
		return nil, err
	}
	defer b.close()
	root := b.log.begin("perfbench."+w.name, 0)
	n := w.subRuns(seconds)
	if traced {
		n = max(1, int(float64(n)/tracedShare+0.5))
	}
	var metrics map[string]metric
	if traced {
		metrics, err = b.runTraced(w, seed, n)
	} else {
		metrics, err = b.runPlain(w, seed, n)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	b.log.end(root)

	fmt.Fprintf(report, "# manifest %s\n", newManifest(w, seed, n).json())
	printTable(report, w.name+" metrics", metrics)
	fmt.Fprint(report, b.summary())
	return &result{
		out: output{Correct: len(b.failed) == 0, Attempted: int64(len(b.runs)),
			Failed: int64(len(b.failedRuns)), Metrics: metrics},
		spans:        b.log.spans,
		failedChecks: b.failed,
	}, nil
}

// runPlain measures n sub-runs untraced and returns the end-to-end
// metrics.
func (b *batch) runPlain(w workload, seed int64, n int) (map[string]metric, error) {
	var setups []float64
	for i := 0; i < n; i++ {
		sp := b.log.begin("subrun", 1)
		r, err := b.measure(w.config(subSeed(seed, i)), sp, nil)
		if err != nil {
			return nil, err
		}
		if err := b.absorb(r, sp); err != nil {
			return nil, err
		}
		b.log.end(sp)
		setups = append(setups, r.setup.Seconds())
	}
	// Same seed, same simulated outcome.
	sp := b.log.begin("subrun.repeat", 1)
	again, err := b.measure(w.config(subSeed(seed, 0)), sp, nil)
	if err != nil {
		return nil, err
	}
	b.log.end(sp)
	setups = append(setups, again.setup.Seconds())
	if again.digest != b.runs[0].digest {
		b.fail(subSeed(seed, 0), "determinism: a second run gave different simulated results")
	}

	var attempted, completedOK, mallocs, allocBytes int64
	var rate, rss, tput []float64
	for _, r := range b.runs {
		attempted += r.attempted()
		completedOK += r.completed - r.res.UnrecoverableReads
		mallocs += int64(r.mallocs)
		allocBytes += int64(r.allocBytes)
		rate = append(rate, float64(r.attempted())/r.run.Seconds())
		rss = append(rss, r.rssMB)
		tput = append(tput, r.throughput)
	}
	sp = b.log.begin("stats.summarize", 1)
	reads, writes, err := b.pooled()
	b.log.end(sp)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"setup_s":             {median(setups), "s"},
		"sim_reqs_per_s":      {median(rate), "1/s"},
		"allocs_per_req":      {float64(mallocs) / float64(attempted), "count"},
		"alloc_bytes_per_req": {float64(allocBytes) / float64(attempted), "B"},
		"max_rss_mb":          {median(rss), "MB"},
		"read_p50_ms":         {float64(percentile(reads, 50)) / 1e6, "ms"},
		"read_p999_ms":        {float64(percentile(reads, 99.9)) / 1e6, "ms"},
		"write_p999_ms":       {float64(percentile(writes, 99.9)) / 1e6, "ms"},
		"sim_kiops":           {mean(tput) / 1e3, "KIOPS"},
		"completed_frac":      {float64(completedOK) / float64(attempted), "fraction"},
	}, nil
}

// runTraced pairs n plain sub-runs with traced, profiled twins and
// returns the per-layer metrics.
func (b *batch) runTraced(w workload, seed int64, n int) (map[string]metric, error) {
	prof := &profiler{cpu: map[string]float64{}, allocs: map[string]float64{}}
	var plainTime, tracedTime time.Duration
	var tracedMallocs, tracedAttempted int64
	tail := map[string]float64{}
	for i := 0; i < n; i++ {
		cfg := w.config(subSeed(seed, i))
		sp := b.log.begin("subrun", 1)
		plain, err := b.measure(cfg, sp, nil)
		if err != nil {
			return nil, err
		}
		cfg.Trace = trace.Options{Enabled: true}
		tsp := b.log.begin("subrun.traced", 1)
		traced, err := b.measure(cfg, tsp, prof)
		if err != nil {
			return nil, err
		}
		b.log.end(tsp)
		if traced.digest != plain.digest {
			b.fail(cfg.Seed, "observer-only: tracing changed the simulated results")
		}
		for _, ph := range traced.res.TailAttribution {
			tail[ph.Phase] += ph.Fraction / float64(n)
		}
		plainTime += plain.run
		tracedTime += traced.run
		tracedMallocs += int64(traced.mallocs)
		tracedAttempted += traced.attempted()
		if err := b.absorb(plain, sp); err != nil {
			return nil, err
		}
		b.log.end(sp)
	}
	m := layerMetrics(b)
	m["trace.overhead"] = metric{tracedTime.Seconds()/plainTime.Seconds() - 1, "fraction"}
	for _, ph := range tracePhases {
		m["tail."+ph] = metric{tail[ph], "fraction"}
	}
	var samples, allocs float64
	for _, v := range prof.cpu {
		samples += v
	}
	for _, v := range prof.allocs {
		allocs += v
	}
	allocsPerReq := float64(tracedMallocs) / float64(tracedAttempted)
	for _, mod := range append(slices.Clone(modules), otherModule) {
		m["host."+mod] = metric{share(prof.cpu[mod], samples), "fraction"}
		m["allocs."+mod] = metric{share(prof.allocs[mod], allocs) * allocsPerReq, "1/req"}
	}
	m["host."+bgGCModule] = metric{share(prof.cpu[bgGCModule], samples), "fraction"}
	m["host.samples"] = metric{samples, "count"}
	m["span.summarize_s"] = metric{b.log.total("stats.summarize").Seconds() / float64(len(b.runs)), "s"}
	return m, nil
}

// tracePhases are the request phases the flight recorder attributes.
var tracePhases = []string{"queue", "tor", "spine_wait", "spine_xfer", "device",
	"gc_block", "degraded_read", "retransmit", "net_in", "net_out"}

func share(v, total float64) float64 {
	if total == 0 {
		return 0
	}
	return v / total
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// cpuTime is the process's host CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS count (Linux), so each sub-run's peak is its own.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Where the count cannot be reset, peakRSSMB reads the process peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident memory since the last resetPeakRSS.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// summary is the readable footer: sample counts behind the percentiles
// and the simulated failures.
func (b *batch) summary() string {
	var attempted, lost, lostReads, unrecov int64
	var repair []float64
	for _, r := range b.runs {
		attempted += r.attempted()
		lost += r.res.LostRequests
		lostReads += r.res.LostReads
		unrecov += r.res.UnrecoverableReads
		repair = append(repair, float64(r.res.RepairCompletionTime)/1e9)
	}
	return fmt.Sprintf("# %d sub-runs, %d simulated requests attempted: %d reads and %d writes completed, "+
		"%d lost (%d reads), %d unrecoverable reads; failed_frac %.6g; repair_done_s %.6g (median)\n",
		len(b.runs), attempted, b.reads, b.writes, lost, lostReads, unrecov,
		share(float64(lost+unrecov), float64(attempted)), median(repair))
}
