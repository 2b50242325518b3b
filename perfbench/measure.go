package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// epoch anchors now(): every timestamp in a run is on one monotonic
// clock, so a send stamped by one goroutine and a receive stamped by
// another subtract meaningfully.
var epoch = time.Now()

// now returns monotonic nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted
// samples: the smallest sample with at least q·n samples at or below it.
// It returns NaN for no samples.
func percentile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return float64(sorted[rank-1])
}

// sortedCopy returns the samples in ascending order, leaving the input
// untouched.
func sortedCopy(samples []int64) []int64 {
	s := slices.Clone(samples)
	slices.Sort(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// hist is a log-linear histogram of durations in nanoseconds. Below
// 2·histSub ns every value has its own bucket; above, each power of two
// is split into histSub equal buckets, so a bucket is at most 1/histSub
// (0.8%) of its values wide. Its size is fixed whatever the number of
// samples, so the benchmark's own memory does not grow with throughput.
type hist struct {
	counts [histBuckets]uint32
	n      int64
}

const (
	histSub     = 128
	histBuckets = 26 * histSub // a uint32 value has shift ≤ 24, so index < 26·histSub
)

// histIndex returns the bucket holding v (0 ≤ v < 2³²).
func histIndex(v uint64) int {
	shift := max(0, bits.Len64(v)-8) // v>>shift lies in [histSub, 2·histSub)
	return shift*histSub + int(v>>shift)
}

// histBounds returns the lowest value bucket i holds and its width.
func histBounds(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	shift := i/histSub - 1
	return float64(uint64(i-shift*histSub) << shift), float64(uint64(1) << shift)
}

// add records a duration, clamped to [0, 2³²) ns.
func (h *hist) add(d int64) {
	h.counts[histIndex(uint64(min(max(d, 0), math.MaxUint32)))]++
	h.n++
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1), placed
// within its bucket by linear interpolation on the rank, so it moves
// continuously with the samples rather than in bucket steps. It returns
// NaN for no samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := min(max(int64(math.Ceil(q*float64(h.n))), 1), h.n)
	var below int64
	for i, c := range h.counts {
		if below+int64(c) >= rank {
			lo, width := histBounds(i)
			return lo + width*(float64(rank-below)-0.5)/float64(c)
		}
		below += int64(c)
	}
	return math.NaN() // unreachable: the counts sum to n
}

// payloads generates a lane's message contents from the run seed. Each
// of a small pool of reference patterns is filled from a splitmix64
// stream; message i is pattern i%pool with its first eight bytes XORed
// with i, so every message is distinct and a misdelivered, reordered or
// corrupted one fails check.
type payloads struct {
	refs [][]byte
}

// payloadPool is how many distinct reference patterns a lane cycles
// through. It equals the streaming window: the sender restamps buffer
// i%payloadPool for message i only after the Wait of message i-window
// returned, so no buffer is restamped while a send from it is in flight.
const payloadPool = window

func newPayloads(seed, lane uint64, size int) *payloads {
	p := &payloads{refs: make([][]byte, payloadPool)}
	state := seed ^ lane*0xd1b54a32d192ed03
	for k := range p.refs {
		b := make([]byte, size)
		for off := 0; off < size; off += 8 {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], splitmix64(&state))
			copy(b[off:], w[:])
		}
		p.refs[k] = b
	}
	return p
}

// splitmix64 advances state and returns the next pseudo-random word.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// buffers returns sender-owned copies of the reference patterns; message
// i is sent from buffers()[i%payloadPool] after stamp.
func (p *payloads) buffers() [][]byte {
	out := make([][]byte, len(p.refs))
	for k, r := range p.refs {
		out[k] = slices.Clone(r)
	}
	return out
}

// stamp turns buf, a copy of pattern i%payloadPool, into message i.
func (p *payloads) stamp(buf []byte, i int) {
	ref := p.refs[i%len(p.refs)]
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(i))
	for k := 0; k < len(w) && k < len(buf); k++ {
		buf[k] = ref[k] ^ w[k]
	}
}

// check reports whether data is exactly message i.
func (p *payloads) check(data []byte, i int) bool {
	ref := p.refs[i%len(p.refs)]
	if len(data) != len(ref) {
		return false
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(i))
	n := min(len(w), len(ref))
	for k := 0; k < n; k++ {
		if data[k] != ref[k]^w[k] {
			return false
		}
	}
	return bytes.Equal(data[n:], ref[n:])
}

// cpuTime returns the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// maxRSSBytes returns the process's peak resident set size.
func maxRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}

// Go runtime metrics read around a measured window.
const (
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU = "/cpu/classes/total:cpu-seconds"
	rmGCCycles = "/gc/cycles/total:gc-cycles"
	rmAllocs   = "/gc/heap/allocs:objects"
	rmAllocB   = "/gc/heap/allocs:bytes"
	rmSchedLat = "/sched/latencies:seconds"
)

// rtSnapshot is one reading of the runtime metrics the ledger uses.
type rtSnapshot struct {
	gcCPU, totalCPU          float64
	gcCycles, allocs, allocB uint64
	schedCounts              []uint64
	schedBuckets             []float64
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{{Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmGCCycles},
		{Name: rmAllocs}, {Name: rmAllocB}, {Name: rmSchedLat}}
	metrics.Read(s)
	h := s[5].Value.Float64Histogram()
	return rtSnapshot{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		gcCycles:     s[2].Value.Uint64(),
		allocs:       s[3].Value.Uint64(),
		allocB:       s[4].Value.Uint64(),
		schedCounts:  slices.Clone(h.Counts),
		schedBuckets: h.Buckets,
	}
}

// schedP99 returns the 99th percentile of goroutine scheduling latency
// between two snapshots, in seconds: the upper edge of the histogram
// bucket holding it (its lower edge when the bucket is unbounded).
func schedP99(a, b rtSnapshot) float64 {
	d := make([]uint64, len(b.schedCounts))
	var total uint64
	for i := range d {
		d[i] = b.schedCounts[i] - a.schedCounts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var acc uint64
	for i, c := range d {
		acc += c
		if acc >= want {
			if hi := b.schedBuckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.schedBuckets[i]
		}
	}
	return 0
}
