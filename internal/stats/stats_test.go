package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func rec(lat ...int64) *Recorder {
	r := NewRecorder()
	for i, l := range lat {
		r.Add(Sample{Total: l}, int64(i))
	}
	return r
}

func TestPercentileNearestRank(t *testing.T) {
	d := rec(10, 20, 30, 40, 50, 60, 70, 80, 90, 100).All()
	cases := []struct {
		p    float64
		want int64
	}{
		{50, 50}, {10, 10}, {100, 100}, {99, 100}, {95, 100}, {90, 90}, {1, 10},
	}
	for _, c := range cases {
		if got := d.Percentile(c.p); got != c.want {
			t.Errorf("P%.1f = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	d := NewRecorder().All()
	if d.Percentile(99) != 0 {
		t.Fatal("empty percentile != 0")
	}
	if d.Mean() != 0 || d.Max() != 0 || d.Min() != 0 {
		t.Fatal("empty summary stats != 0")
	}
}

func TestPercentileBounds(t *testing.T) {
	d := rec(5, 15, 25).All()
	if d.Percentile(-1) != 5 {
		t.Fatal("p<=0 should return min")
	}
	if d.Percentile(200) != 25 {
		t.Fatal("p>=100 should return max")
	}
}

func TestMeanMaxMin(t *testing.T) {
	d := rec(1, 2, 3, 4).All()
	if d.Mean() != 2.5 {
		t.Fatalf("mean = %f, want 2.5", d.Mean())
	}
	if d.Max() != 4 || d.Min() != 1 {
		t.Fatalf("max/min = %d/%d", d.Max(), d.Min())
	}
}

func TestReadWriteSplit(t *testing.T) {
	r := NewRecorder()
	r.Add(Sample{Total: 100, Write: false}, 0)
	r.Add(Sample{Total: 200, Write: true}, 1)
	r.Add(Sample{Total: 300, Write: false}, 2)
	if r.Reads().Len() != 2 {
		t.Fatalf("reads = %d, want 2", r.Reads().Len())
	}
	if r.Writes().Len() != 1 {
		t.Fatalf("writes = %d, want 1", r.Writes().Len())
	}
	if r.Writes().Max() != 200 {
		t.Fatalf("write max = %d, want 200", r.Writes().Max())
	}
	if r.All().Len() != 3 {
		t.Fatalf("all = %d, want 3", r.All().Len())
	}
}

func TestStorageBreakdown(t *testing.T) {
	s := Sample{Total: 1000, NetIn: 100, Queue: 200, Device: 300, NetOut: 400}
	if s.Storage() != 500 {
		t.Fatalf("storage = %d, want 500", s.Storage())
	}
	r := NewRecorder()
	r.Add(s, 0)
	if r.ReadStorage().Max() != 500 {
		t.Fatalf("read storage = %d, want 500", r.ReadStorage().Max())
	}
	if r.WriteStorage().Len() != 0 {
		t.Fatal("write storage should be empty for a read")
	}
}

func TestThroughput(t *testing.T) {
	r := NewRecorder()
	// 11 samples over 1 second: 10 intervals => 10 IOPS.
	for i := 0; i <= 10; i++ {
		r.Add(Sample{Total: 1}, int64(i)*1e8)
	}
	if got := r.Throughput(); got < 9.9 || got > 10.1 {
		t.Fatalf("throughput = %f, want ~10", got)
	}
}

func TestThroughputDegenerate(t *testing.T) {
	r := NewRecorder()
	if r.Throughput() != 0 {
		t.Fatal("empty throughput != 0")
	}
	r.Add(Sample{}, 5)
	if r.Throughput() != 0 {
		t.Fatal("single-sample throughput != 0")
	}
}

func TestReset(t *testing.T) {
	r := rec(1, 2, 3)
	r.Reset()
	if r.Len() != 0 || r.Throughput() != 0 {
		t.Fatal("reset did not clear recorder")
	}
}

// TestRecorderAcrossBlocks fills several storage blocks, then refills
// them after a Reset: samples keep recording order, every statistic sees
// all of them, and a Reset recorder reuses its blocks.
func TestRecorderAcrossBlocks(t *testing.T) {
	r := NewRecorder()
	for round, n := range []int{2*blockSamples + 37, blockSamples + 1} {
		r.Reset()
		for i := 0; i < n; i++ {
			r.Add(Sample{Total: int64(n - i), Write: i%4 == 0}, int64(i))
		}
		if r.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, r.Len(), n)
		}
		raw := RawSamples(r)
		if len(raw) != n {
			t.Fatalf("round %d: RawSamples has %d samples, want %d", round, len(raw), n)
		}
		for i, s := range raw {
			if s.Total != int64(n-i) {
				t.Fatalf("round %d: sample %d = %d, want %d (recording order)", round, i, s.Total, n-i)
			}
		}
		if all := r.All(); all.Len() != n || all.Min() != 1 || all.Max() != int64(n) {
			t.Fatalf("round %d: All() len/min/max = %d/%d/%d", round, all.Len(), all.Min(), all.Max())
		}
		if got, want := r.Reads().Len()+r.Writes().Len(), n; got != want {
			t.Fatalf("round %d: reads+writes = %d, want %d", round, got, want)
		}
		if want := float64(n-1) / (float64(n-1) / 1e9); r.Throughput() != want {
			t.Fatalf("round %d: throughput = %v, want %v", round, r.Throughput(), want)
		}
	}
	if len(r.blocks) != 3 {
		t.Fatalf("%d blocks after refilling a Reset recorder, want the first run's 3 reused", len(r.blocks))
	}
}

func TestTailCDFDefaults(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	d := rec(vals...).All()
	pts := d.TailCDF()
	if len(pts) != 4 {
		t.Fatalf("default CDF points = %d, want 4", len(pts))
	}
	wantPcts := []float64{98.5, 99, 99.5, 99.9}
	for i, p := range pts {
		if p.Pct != wantPcts[i] {
			t.Errorf("point %d pct = %f, want %f", i, p.Pct, wantPcts[i])
		}
		if p.Latency != int64(wantPcts[i]*10) {
			t.Errorf("P%.1f = %d, want %d", p.Pct, p.Latency, int64(wantPcts[i]*10))
		}
	}
}

func TestFormatters(t *testing.T) {
	if Ms(2_500_000) != "2.50ms" {
		t.Fatalf("Ms = %q", Ms(2_500_000))
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(100, 50) != 2 {
		t.Fatal("speedup")
	}
	if Speedup(100, 0) != 0 {
		t.Fatal("speedup zero")
	}
}

// Property: percentiles are monotonically non-decreasing in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(500)
		rc := NewRecorder()
		for i := 0; i < n; i++ {
			rc.Add(Sample{Total: int64(r.Intn(1_000_000))}, int64(i))
		}
		d := rc.All()
		prev := int64(-1)
		for p := 1.0; p <= 100; p += 0.5 {
			v := d.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: P100 equals max, P~0 equals min, and every percentile is a
// member of the sample set (nearest-rank definition).
func TestPercentileMembershipProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		rc := NewRecorder()
		set := map[int64]bool{}
		for i, v := range raw {
			rc.Add(Sample{Total: int64(v)}, int64(i))
			set[int64(v)] = true
		}
		d := rc.All()
		vals := make([]int64, 0, len(raw))
		for _, v := range raw {
			vals = append(vals, int64(v))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		if d.Percentile(100) != vals[len(vals)-1] {
			return false
		}
		for p := 5.0; p <= 100; p += 10 {
			if !set[d.Percentile(p)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
