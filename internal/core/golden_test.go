package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rackblox/internal/sim"
	"rackblox/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_results.txt from this run")

// goldenFile pins the sha256 of the JSON-marshaled Result of every
// goldenConfigs run at seeds 1, 7 and 42.
const goldenFile = "testdata/golden_results.txt"

// goldenConfigs are the erasure-coded failure runs (plus the replicated
// control-plane timelines) whose Results must not move under a pure
// refactor: the failure handling, repair and re-integration paths
// decide which chunk serves which read, and a change there shows up in
// these hashes first.
func goldenConfigs(t *testing.T) map[string]Config {
	adopterCrash, _, _ := adopterCrashConfig(t)
	// The repair gate's run traced and metered pins the repair queue's
	// recon_* instants and the repair_backlog gauge, which no other
	// Result field records.
	traced := repairGateConfig()
	traced.Trace = trace.Options{Enabled: true}
	traced.MetricsInterval = 5 * sim.Millisecond
	cfgs := map[string]Config{
		"rs-gc-degraded":      ecGCConfig(),
		"rs-m-crash":          ecMCrashConfig(),
		"rs-m+1-crash":        ecMPlusOneCrashConfig(),
		"rs-rack-crash":       rsRackCrashConfig(),
		"rs-tor-outage":       rsToROutageConfig(),
		"rs-adopter-crash":    adopterCrash,
		"rs-fail-heal-cycle":  failHealCycleConfig(),
		"rs-catch-up-revival": catchUpRevivalConfig(),
		"lrc-server-crash":    lrcServerCrashConfig(),
		"lrc-rack-crash":      lrcRackCrashConfig(),
		"lrc-one-per-rack":    lrcOnePerRackCrashConfig(),
		"lrc-repair-gate":     repairGateConfig(),
		"lrc-repair-traced":   traced,
	}
	for _, tc := range controlPlaneCases() {
		cfgs["cp-"+tc.name] = tc.cfg()
	}
	return cfgs
}

// TestGoldenResultHashes runs every golden config at seeds 1, 7 and 42
// and compares the sha256 of its Result JSON with the checked-in hash.
// Regenerate with `go test ./internal/core -run TestGoldenResultHashes
// -update` only when a change is meant to move simulated outcomes, and
// say which runs moved and why.
func TestGoldenResultHashes(t *testing.T) {
	cfgs := goldenConfigs(t)
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	slices.Sort(names)
	seeds := []int64{1, 7, 42}
	got := make([]string, len(names)*len(seeds))
	t.Run("runs", func(t *testing.T) {
		for i, name := range names {
			for j, seed := range seeds {
				slot := &got[i*len(seeds)+j]
				cfg := cfgs[name]
				cfg.Seed = seed
				t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
					t.Parallel()
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					b, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(b)
					*slot = fmt.Sprintf("%s seed=%d %s", name, seed, hex.EncodeToString(sum[:]))
				})
			}
		}
	})
	if t.Failed() {
		return
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Errorf("%s has %d hashes, the configs give %d", goldenFile, len(want), len(got))
	}
	for i, line := range got {
		if i < len(want) && want[i] != line {
			t.Errorf("Result moved:\n got  %s\n want %s", line, want[i])
		}
	}
}

// readGolden returns the checked-in hash lines in file order.
func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
