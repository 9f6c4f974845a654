// Command perfbench is the repository benchmark. It runs one named
// workload through core.NewRack and Rack.Run as a batch of seeded
// simulations, checks every Result, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics of a separate traced run)
// by name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 11, "failed": 0, "metrics": {...}}
//
// attempted counts the simulations run and failed those that errored or
// failed an output check; simulated requests that the modelled rack
// loses are a measured outcome and show in completed_frac and
// failed_frac. A failed check is named on standard error and makes the
// exit code non-zero.
//
// Build and run it through run.py, which keeps every build artefact in
// the checkout:
//
//	python3 perfbench/run.py --workload ycsb-read --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload: ycsb-read, gc-storm or rack-repair")
	seed := flag.Int64("seed", 1, "workload seed; sub-run seeds derive from it")
	seconds := flag.Float64("seconds", 10, "measuring time on the reference host; sets the batch size")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead")
	spans := flag.String("spans", "", "write the benchmark's own spans to this JSON file")
	tmpDir := flag.String("tmp", os.TempDir(), "directory for the run's latency pool file")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		if err == nil {
			err = fmt.Errorf("bad -trace %d or -seconds %g", *traced, *seconds)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, *seconds, *traced == 1, *tmpDir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *spans != "" {
		if err := writeSpans(*spans, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	for _, c := range res.failedChecks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	if !res.out.Correct {
		os.Exit(1)
	}
}

// output is the result line the benchmark contract fixes.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printTable writes one "name value unit" line per metric, sorted.
func printTable(w io.Writer, title string, ms map[string]metric) {
	fmt.Fprintf(w, "# %s\n", title)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// manifest identifies what a result was measured on and with.
type manifest struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	SubRuns    int    `json:"sub_runs"`
	SubSeeds   string `json:"sub_seeds"`
	ConfigHash string `json:"config_hash"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	Model      string `json:"model"`
}

func newManifest(w workload, seed int64, subRuns int) manifest {
	cfg := w.config(0)
	data, _ := json.Marshal(cfg) // a Config always marshals
	sum := sha256.Sum256(data)
	return manifest{
		Workload:   w.name,
		Seed:       seed,
		SubRuns:    subRuns,
		SubSeeds:   "seed*1000+i",
		ConfigHash: hex.EncodeToString(sum[:8]),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitRev:     gitRev(),
		Model: "unvalidated: the repository holds no hardware reference, " +
			"so simulated metrics carry no error figure",
	}
}

func (m manifest) json() string {
	data, _ := json.Marshal(m) // strings and ints only
	return string(data)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitRev is the revision the go command stamped into the binary, "unknown"
// outside a git checkout.
func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if modified {
		rev += "+modified"
	}
	return rev
}
