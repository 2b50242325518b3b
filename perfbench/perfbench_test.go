package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"
)

// refPercentile is the nearest-rank definition read literally: the
// smallest sample x with at least q·n samples ≤ x.
func refPercentile(sorted []int64, q float64) float64 {
	for _, x := range sorted {
		le := 0
		for _, y := range sorted {
			if y <= x {
				le++
			}
		}
		if float64(le) >= q*float64(len(sorted)) {
			return float64(x)
		}
	}
	return math.NaN()
}

func TestPercentileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = rng.Int63n(50) // duplicates on purpose
		}
		sorted := sortedCopy(xs)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			if got, want := percentile(sorted, q), refPercentile(sorted, q); got != want {
				t.Errorf("n=%d q=%v: percentile %v, reference %v", n, q, got, want)
			}
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
	one := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(one, 0.5); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", got)
	}
	if got := percentile(one, 0.99); got != 10 {
		t.Errorf("p99 of 1..10 = %v, want 10", got)
	}
}

func TestHistBucketsCoverEveryValue(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 127, 128, 255, 256, 257, 511, 512, 1000, 22500, 1 << 20, 20e6, 1<<32 - 1} {
		i := histIndex(v)
		if i < prev || i >= histBuckets {
			t.Fatalf("value %d: bucket %d (previous %d, %d buckets)", v, i, prev, histBuckets)
		}
		prev = i
		lo, width := histBounds(i)
		if float64(v) < lo || float64(v) >= lo+width {
			t.Errorf("value %d in bucket %d, which holds [%v, %v)", v, i, lo, lo+width)
		}
		if width > 1 && width/lo > 1.0/histSub {
			t.Errorf("bucket %d is %v wide at %v: coarser than 1/%d", i, width, lo, histSub)
		}
	}
	for i := 1; i < histBuckets; i++ {
		lo, width := histBounds(i - 1)
		if next, _ := histBounds(i); next != lo+width {
			t.Fatalf("bucket %d starts at %v, bucket %d ends at %v", i, next, i-1, lo+width)
		}
	}
}

// TestHistQuantileMatchesSortedReference checks that the histogram's
// quantile lands in the bucket of the exact nearest-rank percentile.
func TestHistQuantileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 10, 999, 20000} {
		var h hist
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(math.Exp(rng.Float64() * 20)) // 1 ns .. 0.5 s
			h.add(xs[i])
		}
		sorted := sortedCopy(xs)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
			want, got := percentile(sorted, q), h.quantile(q)
			if histIndex(uint64(got)) != histIndex(uint64(want)) {
				t.Errorf("n=%d q=%v: histogram %v, exact %v", n, q, got, want)
			}
		}
	}
	var empty hist
	if !math.IsNaN(empty.quantile(0.5)) {
		t.Error("quantile of no samples must be NaN")
	}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name     string
		s        interval
		children []interval
		want     int64
	}{
		{"leaf", interval{0, 100}, nil, 100},
		{"disjoint children", interval{0, 100}, []interval{{10, 20}, {50, 80}}, 60},
		{"overlapping children counted once", interval{0, 100}, []interval{{10, 40}, {30, 60}}, 50},
		{"touching children", interval{0, 100}, []interval{{10, 20}, {20, 30}}, 80},
		{"child beyond the span is clipped", interval{0, 100}, []interval{{-50, 10}, {90, 500}}, 80},
		{"child outside the span", interval{0, 100}, []interval{{200, 300}}, 100},
		{"nested children", interval{0, 100}, []interval{{10, 90}, {20, 30}}, 20},
	}
	for _, c := range cases {
		if got := selfTime(c.s, c.children); got != c.want {
			t.Errorf("%s: self %d, want %d", c.name, got, c.want)
		}
	}
}

// TestLedgerHandBuiltTree checks layer self times on a ping-pong shaped
// tree: root → mpi → (submit, wait), with fabric spans attached by tag
// and time to the deepest span containing their start.
func TestLedgerHandBuiltTree(t *testing.T) {
	root := opID(opPing, 0)
	app := []span{
		{id: root, start: 0, end: 100, tag: tagPing, layer: layerOp},
		{id: 10, parent: root, start: 2, end: 50, tag: tagPing, layer: layerMPI},
		{id: 11, parent: 10, start: 3, end: 10, tag: tagPing, layer: layerSubmit},
		{id: 12, parent: 10, start: 10, end: 49, tag: tagPing, layer: layerWait},
		{id: 20, parent: root, start: 52, end: 98, tag: tagPong, layer: layerMPI},
		{id: 21, parent: 20, start: 52, end: 55, tag: tagPong, layer: layerSubmit},
		{id: 22, parent: 20, start: 55, end: 98, tag: tagPong, layer: layerWait},
	}
	fab := []span{
		{start: 20, end: 30, tag: tagPing, layer: layerFabric},   // inside the first wait
		{start: 60, end: 200, tag: tagPong, layer: layerFabric},  // clipped to the second wait: 60..98
		{start: 500, end: 600, tag: tagPing, layer: layerFabric}, // no operation: ignored
	}
	lg := buildLedger(app, fab)
	want := [numLayers]int64{
		layerOp:     2 + 2 + 2, // 0..2, 50..52, 98..100
		layerMPI:    2 + 0,     // 2..3, 49..50
		layerSubmit: 7 + 3,
		layerWait:   (39 - 10) + (43 - 38),
		layerFabric: 10 + 38,
	}
	if lg.self != want {
		t.Errorf("self times %v, want %v", lg.self, want)
	}
	if lg.ops != 1 || lg.rootNs != 100 {
		t.Errorf("ops %d rootNs %d, want 1 and 100", lg.ops, lg.rootNs)
	}
	if got := lg.tieout(); got != 1 {
		t.Errorf("tie-out %v, want exactly 1 for a tree without overlapping siblings", got)
	}
}

// TestLedgerOverlapShows checks that overlapping siblings push the
// tie-out above 1, which is what the check exists to catch.
func TestLedgerOverlapShows(t *testing.T) {
	root := opID(opBulk, 3)
	app := []span{
		{id: root, start: 0, end: 100, tag: int32(bulkTag(3)), layer: layerOp},
		{id: 30, parent: root, start: 0, end: 60, tag: int32(bulkTag(3)), layer: layerWait},
		{id: 31, parent: root, start: 40, end: 100, tag: int32(bulkTag(3)), layer: layerWait},
	}
	lg := buildLedger(app, nil)
	if got := lg.tieout(); got != 1.2 {
		t.Errorf("tie-out %v, want 1.2", got)
	}
	if lg.self[layerOp] != 0 {
		t.Errorf("uncovered %d, want 0", lg.self[layerOp])
	}
}

// TestLedgerDropsOrphans checks that spans whose root was never
// recorded stay out of the ledger.
func TestLedgerDropsOrphans(t *testing.T) {
	app := []span{{id: 40, parent: opID(opPing, 9), start: 0, end: 10, layer: layerMPI}}
	if lg := buildLedger(app, nil); lg.ops != 0 || lg.self != ([numLayers]int64{}) {
		t.Errorf("orphan span entered the ledger: %+v", lg)
	}
}

func TestPayloadCheckCatchesFlippedByte(t *testing.T) {
	for _, size := range []int{pingSize, 4096} {
		p := newPayloads(42, laneBulk, size)
		bufs := p.buffers()
		for i := 0; i < 3*payloadPool; i++ {
			buf := bufs[i%len(bufs)]
			p.stamp(buf, i)
			if !p.check(buf, i) {
				t.Fatalf("size %d: message %d fails its own check", size, i)
			}
			if p.check(buf, i+1) {
				t.Fatalf("size %d: message %d passes as message %d", size, i, i+1)
			}
			for _, pos := range []int{0, 7, size / 2, size - 1} {
				buf[pos] ^= 0x10
				if p.check(buf, i) {
					t.Fatalf("size %d: flipped byte %d of message %d not caught", size, pos, i)
				}
				buf[pos] ^= 0x10
			}
			if p.check(buf[:size-1], i) {
				t.Fatalf("size %d: truncated message %d not caught", size, i)
			}
		}
	}
	a, b := newPayloads(1, laneBulk, 64), newPayloads(2, laneBulk, 64)
	if slices.Equal(a.refs[0], b.refs[0]) {
		t.Error("different seeds generated the same payload")
	}
	if c := newPayloads(1, laneBulk, 64); !slices.Equal(a.refs[3], c.refs[3]) {
		t.Error("the same seed generated different payloads")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the report must match.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestReportsMatchBenchmarkSpec runs each mode briefly and checks that
// it reports exactly the metrics BENCHMARK.json declares, with their
// units, and that every name is well formed.
func TestReportsMatchBenchmarkSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine for several seconds")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	w, err := findWorkload("pingpong-mem")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runPlain(w, 1, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runTraced(w, 1, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode string
		res  *result
		want []struct{ Name, Unit string }
	}{{"end_to_end", plain, spec.EndToEnd}, {"per_layer", traced, spec.PerLayer}} {
		if c.res.failed != 0 {
			t.Errorf("%s run failed: %v", c.mode, c.res.errs)
		}
		if len(c.res.metrics) != len(c.want) {
			t.Errorf("%s: reported %d metrics, BENCHMARK.json declares %d", c.mode, len(c.res.metrics), len(c.want))
		}
		for _, m := range c.want {
			if !metricName.MatchString(m.Name) {
				t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", c.mode, m.Name)
			}
			got, ok := c.res.metrics[m.Name]
			if !ok {
				t.Errorf("%s: metric %s not reported", c.mode, m.Name)
				continue
			}
			if got.Unit != m.Unit {
				t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", c.mode, m.Name, got.Unit, m.Unit)
			}
		}
	}
}
