// Command perfbench is the repository's wall-clock benchmark. It drives
// the runtime stack users run — mpi over nmad over the core task engine,
// on an in-process memory rail or one loopback TCP connection — through
// a closed-loop workload, checks that every payload arrives byte-exact
// and that every gate drains to zero protocol state, and prints every
// metric by name with its unit.
//
// Run it through run.sh, which builds it from the checkout first:
//
//	bash perfbench/run.sh --workload pingpong-mem --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// makes a separate traced run and reports the per-layer ledger: counter
// deltas from an untraced half, span self times from a traced half. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Any failed operation makes it exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"pioman/internal/nmad"
)

const (
	setupReps   = 100                    // set-ups per run; setup_s is their median
	warmup      = time.Second            // traffic before each timed window
	subWindows  = 10                     // the timed window is cut into at most this many
	subOps      = 1500                   // operations a sub-window should hold
	idleWindows = 5                      // idle CPU windows after the timed phase; idle_cpu_frac is the highest
	idleWindow  = 400 * time.Millisecond // length of each
	traceCap    = 3 * time.Second        // longest traced window (bounds span memory)
)

func main() {
	os.Exit(run())
}

func run() int {
	wname := flag.String("workload", "", "workload: pingpong-mem, stream-1m-mem or mixed-tcp")
	seed := flag.Uint64("seed", 1, "seed the payloads are generated from")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	w, err := findWorkload(*wname)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wname, *seconds, *traced)
		return 2
	}
	length := time.Duration(*seconds) * time.Second
	// Last line of defence against a hang the phase watchdogs miss: a
	// run takes about length plus a few seconds of set-up, warmup and
	// idle windows.
	limit := 2*length + time.Minute
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run exceeded %v; aborting\n", w.name, limit)
		os.Exit(3)
	})
	var res *result
	if *traced == 1 {
		res, err = runTraced(w, *seed, length)
	} else {
		res, err = runPlain(w, *seed, length)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res.context["workload"] = w.name
	res.context["traffic"] = w.traffic()
	res.context["seed"] = *seed
	res.context["seconds"] = *seconds
	res.context["trace"] = *traced
	res.context["nproc"] = runtime.NumCPU()
	res.context["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.context["go"] = runtime.Version()
	return res.print()
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one invocation's report.
type result struct {
	context   map[string]any
	names     []string // metrics in report order
	metrics   map[string]metric
	attempted int64
	failed    int64
	errs      []string
}

func newResult() *result {
	return &result{context: map[string]any{}, metrics: map[string]metric{}}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func (res *result) add(name, unit string, v float64) {
	if _, dup := res.metrics[name]; dup || !metricName.MatchString(name) {
		panic("perfbench: bad or duplicate metric name " + name)
	}
	res.names = append(res.names, name)
	res.metrics[name] = metric{Value: v, Unit: unit}
}

func (res *result) absorb(r *runner) {
	res.attempted += r.attempted.Load()
	res.failed += r.failed.Load()
	r.errMu.Lock()
	res.errs = append(res.errs, r.errs...)
	r.errMu.Unlock()
}

// print writes the context line, a readable table and the final JSON
// line, and returns the exit code.
func (res *result) print() int {
	correct := res.failed == 0
	for _, n := range res.names {
		if v := res.metrics[n].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			correct = false
			res.errs = append(res.errs, "metric "+n+" has no value")
			res.metrics[n] = metric{Value: 0, Unit: res.metrics[n].Unit}
		}
	}
	ctx, _ := json.Marshal(res.context) // map of plain values; cannot fail
	fmt.Printf("context %s\n", ctx)
	for _, e := range res.errs {
		fmt.Printf("error   %s\n", e)
	}
	for _, n := range res.names {
		m := res.metrics[n]
		fmt.Printf("%-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// connect wires w's cluster and completes its first round trip.
func connect(w workload, fl *fabricLog) (*cluster, error) {
	c, err := wire(w, fl)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := c.roundTrip(); err != nil {
		c.close()
		return nil, fmt.Errorf("set-up round trip: %w", err)
	}
	return c, nil
}

// setUp connects the workload's cluster setupReps times, closing each
// but the last, which it returns with the median set-up time in seconds.
// A collection before each set-up keeps the closed clusters' garbage
// from piling up into the run's peak RSS, and out of the next set-up.
func setUp(w workload) (*cluster, float64, error) {
	times := make([]float64, 0, setupReps)
	var c *cluster
	for k := 0; k < setupReps; k++ {
		if c != nil {
			c.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if c, err = connect(w, nil); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return c, median(times), nil
}

// samples picks the round-trip and one-way samples a workload reports:
// the ping-pong's round trip when it has one, else the bulk sends'
// completion; the bulk messages' delivery when it has them, else the
// pings'.
func samples(w workload, lanes [numLanes]*laneOut) (rtt, xfer *series) {
	if w.ping {
		rtt = &lanes[idxPingClient].rtt
	} else {
		rtt = &lanes[idxBulkSender].rtt
	}
	if w.bulk {
		xfer = &lanes[idxBulkReceiver].xfer
	} else {
		xfer = &lanes[idxPingEcho].xfer
	}
	return rtt, xfer
}

// work returns the operations completed and the verified payload bytes
// delivered in sub-window k: a ping-pong is one operation carrying 8 B
// each way, a bulk message one operation of 1 MiB.
func work(w workload, lanes [numLanes]*laneOut, k int) (ops, bytes int64) {
	if w.ping {
		n := lanes[idxPingClient].rtt.subs[k]
		ops, bytes = ops+n, bytes+2*pingSize*n
	}
	if w.bulk {
		n := lanes[idxBulkReceiver].xfer.subs[k]
		ops, bytes = ops+n, bytes+bulkSize*n
	}
	return ops, bytes
}

// runPlain is the untraced run: the end-to-end metrics. Rates are
// medians over the sub-windows of the timed window, so a stall of the
// host in one sub-window does not move them; latency percentiles are
// taken over every sample of the window.
func runPlain(w workload, seed uint64, length time.Duration) (*result, error) {
	res := newResult()
	c, setupS, err := setUp(w)
	if err != nil {
		return nil, err
	}
	defer c.close()
	r := newRunner(w, seed, c, subWindows, nil)
	win := r.measure(warmup, length, nil)

	// Idle: wiring up, nothing posted. Other tenants of the host can only
	// take CPU away from the spinning engines, so the highest window is
	// the least disturbed one.
	var idle []float64
	for k := 0; k < idleWindows; k++ {
		cpu0, t0 := cpuTime(), now()
		time.Sleep(idleWindow)
		idle = append(idle, float64(cpuTime()-cpu0)/float64(now()-t0))
	}
	rss := maxRSSBytes()
	c.close()
	res.absorb(r)

	var bw, cpuPerOp []float64
	var ops int64
	subs := len(win.bounds) - 1
	for k := 0; k < subs; k++ {
		n, bytes := work(w, win.lanes, k)
		ops += n
		wall, cpu := win.bounds[k+1]-win.bounds[k], win.cpus[k+1]-win.cpus[k]
		bw = append(bw, float64(bytes)/(float64(wall)/1e9)/1e6)
		cpuPerOp = append(cpuPerOp, float64(cpu)/1e3/float64(n))
	}
	rtt, xfer := samples(w, win.lanes)
	res.context["ops"] = ops
	res.context["subwindows"] = subs
	res.context["samples"] = map[string]int64{"rtt": rtt.h.n, "xfer": xfer.h.n, "setup": setupReps}
	// The p99s are reported but not gated: on a shared 2-vCPU host their
	// run-to-run spread exceeds any bound the benchmark may set.
	res.context["p99_us"] = map[string]float64{"rtt": rtt.h.quantile(0.99) / 1e3, "xfer": xfer.h.quantile(0.99) / 1e3}
	res.add("setup_s", "s", setupS)
	res.add("rtt_p50_us", "us", rtt.h.quantile(0.50)/1e3)
	res.add("xfer_p50_us", "us", xfer.h.quantile(0.50)/1e3)
	res.add("bw_mb_s", "MB/s", median(bw))
	res.add("cpu_us_per_op", "us/op", median(cpuPerOp))
	res.add("idle_cpu_frac", "cores", slices.Max(idle))
	res.add("max_rss_mb", "MB", float64(rss)/1e6)
	return res, nil
}

// runTraced is the traced run. Its first half runs the workload untraced
// for counter deltas and reference medians; its second half wires the
// same topology by hand with timed rails and records spans.
func runTraced(w workload, seed uint64, length time.Duration) (*result, error) {
	res := newResult()
	half := length / 2
	c, err := connect(w, nil)
	if err != nil {
		return nil, err
	}
	plain := newRunner(w, seed, c, 1, nil)
	pw := plain.measure(warmup, half, nil)
	c.close()
	res.absorb(plain)

	fl := newFabricLog()
	tc, err := connect(w, fl)
	if err != nil {
		return nil, fmt.Errorf("traced %w", err)
	}
	defer tc.close()
	var ids atomic.Int64
	ids.Store(firstSpanID)
	tr := newRunner(w, seed, tc, 1, &ids)
	tw := tr.measure(warmup, min(half, traceCap), fl)
	tc.close()
	res.absorb(tr)
	mpiNs, err := mpiSelf(mpiCalls)
	res.attempted++
	if err != nil {
		res.failed++
		res.errs = append(res.errs, "mpi self time: "+err.Error())
	}

	// Counters from the untraced half.
	sec := pw.seconds()
	var dn nmadDelta
	var execs, requeues, submitted, steals int64
	for i := range pw.nmad0 {
		dn.add(pw.nmad0[i], pw.nmad1[i])
		execs += int64(pw.core1[i].Executions - pw.core0[i].Executions)
		requeues += int64(pw.core1[i].Requeues - pw.core0[i].Requeues)
		submitted += int64(pw.core1[i].Submitted - pw.core0[i].Submitted)
		steals += int64(pw.core1[i].StealTasks - pw.core0[i].StealTasks)
	}
	msgs := float64(dn.msgs)
	_, bytes := work(w, pw.lanes, 0)
	res.add("core.exec_per_msg", "1/msg", float64(execs)/msgs)
	res.add("core.requeues_per_msg", "1/msg", float64(requeues)/msgs)
	res.add("core.submitted_per_msg", "1/msg", float64(submitted)/msgs)
	res.add("core.steal_frac", "ratio", float64(steals)/float64(execs))
	res.add("core.exec_per_s", "1/s", float64(execs)/sec)
	res.add("nmad.frames_per_msg", "1/msg", float64(dn.frames)/msgs)
	res.add("nmad.eager_acks_per_msg", "1/msg", float64(dn.acks)/msgs)
	res.add("nmad.rdv_started_per_msg", "1/msg", float64(dn.rdv)/msgs)
	res.add("nmad.rdv_pulls_per_msg", "1/msg", float64(dn.pulls)/msgs)
	res.add("nmad.recv_copied_bytes_per_byte", "B/B", float64(dn.copied)/float64(bytes))
	res.add("nmad.retries", "count", float64(dn.retries))
	res.add("nmad.timeouts", "count", float64(dn.timeouts))
	res.add("nmad.allocs_per_msg", "1/msg", float64(pw.rt1.allocs-pw.rt0.allocs)/msgs)
	res.add("nmad.alloc_bytes_per_msg", "B/msg", float64(pw.rt1.allocB-pw.rt0.allocB)/msgs)
	res.add("goruntime.gc_cpu_frac", "ratio", (pw.rt1.gcCPU-pw.rt0.gcCPU)/(pw.rt1.totalCPU-pw.rt0.totalCPU))
	res.add("goruntime.gc_cycles_per_s", "1/s", float64(pw.rt1.gcCycles-pw.rt0.gcCycles)/sec)
	res.add("goruntime.sched_latency_p99_us", "us", schedP99(pw.rt0, pw.rt1)*1e6)

	// Spans and rail timings from the traced half.
	var app []span
	var sendNs []int64
	for _, l := range tw.lanes {
		app = append(app, l.tr.spans...)
		sendNs = append(sendNs, l.tr.sendNs...)
	}
	fl.mu.Lock()
	fab, deliverNs, railSendNs, railBytes := fl.deliveries, fl.deliverNs, fl.sendNs, fl.sendBytes
	fl.mu.Unlock()
	lg := buildLedger(app, fab)
	var tmsgs int64
	for i := range tw.nmad0 {
		tmsgs += int64(tw.nmad1[i].MsgsSent - tw.nmad0[i].MsgsSent)
	}
	tsec := tw.seconds()
	polls, hits := fl.polls()
	perOp := func(l layer) float64 { return float64(lg.self[l]) / 1e3 / float64(lg.ops) }
	deliver := sortedCopy(deliverNs)
	res.add("nmad.isend_p50_ns", "ns", percentile(sortedCopy(sendNs), 0.50))
	res.add("nmad.submit_self_us_per_op", "us", perOp(layerSubmit))
	res.add("nmad.wait_self_us_per_op", "us", perOp(layerWait))
	res.add("mpi.self_us_per_op", "us", mpiNs/1e3)
	res.add("fabric.deliver_self_us_per_op", "us", perOp(layerFabric))
	res.add("fabric.send_p50_ns", "ns", percentile(sortedCopy(railSendNs), 0.50))
	res.add("fabric.wire_bytes_per_msg", "B/msg", float64(railBytes)/float64(tmsgs))
	res.add("fabric.polls_per_s", "1/s", float64(polls)/tsec)
	res.add("fabric.poll_hit_frac", "ratio", float64(hits)/float64(polls))
	res.add("fabric.delivery_p50_us", "us", percentile(deliver, 0.50)/1e3)
	res.add("fabric.delivery_p99_us", "us", percentile(deliver, 0.99)/1e3)
	res.add("progress.uncovered_frac", "ratio", float64(lg.self[layerOp])/float64(lg.rootNs))
	res.add("trace.tieout_ratio", "ratio", lg.tieout())

	// Tracing overhead: traced minus untraced medians.
	prtt, pxfer := samples(w, pw.lanes)
	trtt, txfer := samples(w, tw.lanes)
	overhead := func(traced, plain *series) float64 {
		return (traced.h.quantile(0.5) - plain.h.quantile(0.5)) / 1e3
	}
	res.add("trace.rtt_p50_overhead_us", "us", overhead(trtt, prtt))
	res.add("trace.xfer_p50_overhead_us", "us", overhead(txfer, pxfer))

	// Tie-out: layer self times plus uncovered time must add up to the
	// root spans within 10%; spans that overlap their siblings fail it.
	res.attempted++
	if t := lg.tieout(); !(math.Abs(t-1) <= 0.1) {
		res.failed++
		res.errs = append(res.errs, fmt.Sprintf("tie-out %.4f: layer self times do not add up to the root spans within 10%%", t))
	}
	res.context["traced_ops"] = lg.ops
	res.context["samples"] = map[string]int64{
		"rtt_untraced": prtt.h.n, "xfer_untraced": pxfer.h.n,
		"rtt_traced": trtt.h.n, "xfer_traced": txfer.h.n,
		"rail_sends": int64(len(railSendNs)), "deliveries": int64(len(deliverNs)), "isend": int64(len(sendNs)),
	}
	res.context["limitation"] = "core queue wait is not separable from outside the engine; it is inside nmad.wait_self_us_per_op"
	return res, nil
}

// nmadDelta sums both engines' counter movement over a window.
type nmadDelta struct {
	msgs, frames, acks, rdv, pulls, copied, retries, timeouts int64
}

func (d *nmadDelta) add(a, b nmad.Stats) {
	d.msgs += int64(b.MsgsSent - a.MsgsSent)
	d.frames += int64(b.FramesSent - a.FramesSent)
	d.acks += int64(b.EagerAcks - a.EagerAcks)
	d.rdv += int64(b.RdvStarted - a.RdvStarted)
	d.pulls += int64(b.RdvPulls - a.RdvPulls)
	d.copied += int64(b.RecvCopiedBytes - a.RecvCopiedBytes)
	d.retries += int64(b.RdvRetries-a.RdvRetries) + int64(b.EagerRetries-a.EagerRetries)
	d.timeouts += int64(b.RdvTimeouts-a.RdvTimeouts) + int64(b.EagerTimeouts-a.EagerTimeouts)
}
