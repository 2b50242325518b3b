package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pioman/internal/core"
	"pioman/internal/mpi"
	"pioman/internal/nmad"
)

// Message tags and sizes.
const (
	tagSetup   = 1
	tagPing    = 2
	tagPong    = 3
	tagMPISelf = 4
	tagBulk0   = 16 // bulk message i travels under tagBulk0 + i%bulkTags
	bulkTags   = 16

	pingSize = 8
	bulkSize = 1 << 20
	window   = 4 // outstanding bulk Isends

	lanePing = 1 // payload streams, one per lane kind
	laneBulk = 2
)

func bulkTag(i int) int { return tagBulk0 + i%bulkTags }

// Lane indices, for the watchdog's per-lane op index.
const (
	idxPingClient = iota
	idxPingEcho
	idxBulkSender
	idxBulkReceiver
	numLanes
)

var laneNames = [numLanes]string{"ping client (rank 0)", "ping echo (rank 1)", "bulk sender (rank 0)", "bulk receiver (rank 1)"}

// laneOut is what one load goroutine measured inside the timed window.
// Only that goroutine writes it until the lanes have stopped. A sample
// is recorded only for a verified payload.
type laneOut struct {
	rtt, xfer series
	tr        *laneTrace
}

// series is one kind of duration a lane measures: a histogram over the
// whole timed window and how many samples fell in each sub-window.
type series struct {
	h    hist
	subs [subWindows]int64
}

// record adds a duration in nanoseconds to sub-window k; k < 0 means
// outside the timed window.
func (s *series) record(k int32, d int64) {
	if k >= 0 {
		s.h.add(d)
		s.subs[k]++
	}
}

// runner drives one cluster through one measured window.
type runner struct {
	w    workload
	c    *cluster
	subs int // most sub-windows the timed window may be cut into

	// Each lane kind's payloads, shared read-only by its two ends.
	pingPay, bulkPay *payloads

	sub       atomic.Int32 // current sub-window of the timed window, -1 outside it
	stop      atomic.Bool  // lanes finish their operation and exit
	aborted   chan struct{}
	abortOnce sync.Once

	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	errs      []string

	pingStamp atomic.Int64     // Send start of the ping in flight
	bulkStamp [64]atomic.Int64 // Isend start of bulk message i at [i%64]; the sender runs at most window+1 ahead
	progress  [numLanes]atomic.Int64
	started   [numLanes]bool

	lanes [numLanes]*laneOut
	wg    sync.WaitGroup
}

func newRunner(w workload, seed uint64, c *cluster, subs int, ids *atomic.Int64) *runner {
	r := &runner{w: w, c: c, subs: subs, aborted: make(chan struct{})}
	r.sub.Store(-1)
	if w.ping {
		r.pingPay = newPayloads(seed, lanePing, pingSize)
	}
	if w.bulk {
		r.bulkPay = newPayloads(seed, laneBulk, bulkSize)
	}
	for i := range r.lanes {
		r.lanes[i] = &laneOut{}
		if ids != nil {
			r.lanes[i].tr = &laneTrace{ids: ids}
		}
	}
	return r
}

// fail records a failed operation; an error (as opposed to a corrupt
// payload) also stops the run, since the lanes' peers can no longer make
// progress.
func (r *runner) fail(fatal bool, format string, args ...any) {
	r.failed.Add(1)
	r.errMu.Lock()
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	r.errMu.Unlock()
	if fatal {
		r.stop.Store(true)
		r.abortOnce.Do(func() { close(r.aborted) })
	}
}

// traceRoot returns the root span id of operation i when it is traced,
// 0 otherwise.
func (r *runner) traceRoot(lt *laneTrace, kind, i int) int64 {
	if lt == nil || r.sub.Load() < 0 {
		return 0
	}
	return opID(kind, i)
}

// phase is one measured window: counters around the timed window, the
// clock and CPU time at each sub-window boundary, and what the lanes
// recorded inside it.
type phase struct {
	bounds, cpus []int64 // sub-window boundaries: one more than sub-windows
	nmad0, nmad1 [2]nmad.Stats
	core0, core1 [2]core.Stats
	rt0, rt1     rtSnapshot
	lanes        [numLanes]*laneOut
}

// seconds is the length of the whole timed window.
func (p *phase) seconds() float64 {
	return float64(p.bounds[len(p.bounds)-1]-p.bounds[0]) / 1e9
}

func (r *runner) snapshot(n *[2]nmad.Stats, c *[2]core.Stats) {
	for i, e := range r.c.engines {
		n[i] = e.Stats()
		c[i] = e.Tasks().Stats()
	}
}

// measure runs the workload's lanes: warmup, then the timed window cut
// into sub-windows (with fl, when non-nil, recording inside it), then a
// stop and a wait for the lanes bounded by a watchdog, then the idle
// audit of every gate. Failures are counted in r, not returned. The
// number of sub-windows, at most the runner's, is set from the warmup's
// operation rate so that each holds about subOps operations.
func (r *runner) measure(warmup, length time.Duration, fl *fabricLog) *phase {
	start := func(idx int, fn func(*laneOut)) {
		r.started[idx] = true
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			fn(r.lanes[idx])
		}()
	}
	if r.w.ping {
		start(idxPingEcho, r.pingEcho)
		start(idxPingClient, r.pingClient)
	}
	if r.w.bulk {
		start(idxBulkReceiver, r.bulkReceiver)
		start(idxBulkSender, r.bulkSender)
	}
	sleep := func(d time.Duration) {
		select {
		case <-time.After(d):
		case <-r.aborted:
		}
	}
	win := &phase{lanes: r.lanes}
	a0 := r.attempted.Load()
	sleep(warmup)
	expected := float64(r.attempted.Load()-a0) * length.Seconds() / warmup.Seconds()
	subs := min(r.subs, max(1, int(expected/subOps)))
	r.snapshot(&win.nmad0, &win.core0)
	win.rt0 = readRuntime()
	win.cpus, win.bounds = append(win.cpus, cpuTime()), append(win.bounds, now())
	if fl != nil {
		fl.enabled.Store(true)
	}
	for k := 0; k < subs; k++ {
		r.sub.Store(int32(k))
		sleep(length / time.Duration(subs))
		win.cpus, win.bounds = append(win.cpus, cpuTime()), append(win.bounds, now())
	}
	r.sub.Store(-1)
	if fl != nil {
		fl.enabled.Store(false)
	}
	win.rt1 = readRuntime()
	r.snapshot(&win.nmad1, &win.core1)
	r.stop.Store(true)
	r.waitLanes(30 * time.Second)
	r.auditIdle(2 * time.Second)
	return win
}

// waitLanes waits for every lane to exit. Past the deadline it reports
// what each lane and engine was doing, then closes the cluster, which
// fails every blocked call; if even that does not free the lanes, the
// process exits.
func (r *runner) waitLanes(deadline time.Duration) {
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return
	case <-time.After(deadline):
	}
	r.fail(true, "watchdog: lanes still running %v after stop", deadline)
	fmt.Fprintf(os.Stderr, "perfbench: watchdog fired on workload %s after %v:\n", r.w.name, deadline)
	for i, ok := range r.started {
		if ok {
			fmt.Fprintf(os.Stderr, "  %s: at op %d\n", laneNames[i], r.progress[i].Load())
		}
	}
	r.c.diagnose(os.Stderr)
	r.c.close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		fmt.Fprintln(os.Stderr, "perfbench: lanes did not exit after closing the engines")
		os.Exit(3)
	}
}

// auditIdle checks that every gate drains to zero protocol state once
// the lanes have stopped. Each gate audit counts as one attempted
// operation, failed if residue remains past the grace period.
func (r *runner) auditIdle(grace time.Duration) {
	n := 0
	for _, e := range r.c.engines {
		n += len(e.Gates())
	}
	r.attempted.Add(int64(n))
	deadline := time.Now().Add(grace)
	for {
		res := r.c.residue()
		if len(res) == 0 {
			return
		}
		if time.Now().After(deadline) {
			for _, line := range res {
				r.fail(false, "residue after quiesce: %s", line)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// ---- Load lanes ----

// pingClient is rank 0's closed-loop 8 B ping-pong: Send, then Recv the
// echo, then the next.
func (r *runner) pingClient(out *laneOut) {
	c := r.c.comms[0]
	pay := r.pingPay
	bufs := pay.buffers()
	lt := out.tr
	for i := 0; !r.stop.Load(); i++ {
		r.progress[idxPingClient].Store(int64(i))
		buf := bufs[i%len(bufs)]
		pay.stamp(buf, i)
		r.attempted.Add(1)
		root := r.traceRoot(lt, opPing, i)
		t0 := now()
		r.pingStamp.Store(t0)
		err := lt.send(c, root, 1, tagPing, buf)
		var data []byte
		if err == nil {
			data, err = lt.recv(c, root, 1, tagPong)
		}
		t1 := now()
		if err != nil {
			r.fail(true, "ping %d: %v", i, err)
			return
		}
		if root != 0 {
			lt.root(root, tagPing, t0, t1)
		}
		if !bytes.Equal(data, buf) {
			r.fail(false, "ping %d: echo differs from the ping", i)
			continue
		}
		out.rtt.record(r.sub.Load(), t1-t0)
	}
	// A zero-length ping tells the echo to stop.
	if err := c.Send(1, tagPing, nil); err != nil {
		r.fail(true, "ping stop marker: %v", err)
	}
}

// pingEcho is rank 1's side of the ping-pong: Recv, verify, Send back.
func (r *runner) pingEcho(out *laneOut) {
	c := r.c.comms[1]
	pay := r.pingPay
	for i := 0; ; i++ {
		r.progress[idxPingEcho].Store(int64(i))
		data, _, err := c.Recv(0, tagPing)
		t := now()
		if err != nil {
			r.fail(true, "echo %d: %v", i, err)
			return
		}
		if len(data) == 0 {
			return
		}
		if !pay.check(data, i) {
			r.fail(false, "ping %d: corrupt payload at rank 1", i)
		} else {
			out.xfer.record(r.sub.Load(), t-r.pingStamp.Load())
		}
		if err := c.Send(0, tagPong, data); err != nil {
			r.fail(true, "echo %d: %v", i, err)
			return
		}
	}
}

// bulkSender streams 1 MiB messages from rank 0, keeping window Isends
// outstanding: it waits for the oldest before posting the next.
func (r *runner) bulkSender(out *laneOut) {
	c := r.c.comms[0]
	pay := r.bulkPay
	bufs := pay.buffers()
	lt := out.tr
	var reqs [window]*mpi.Request
	var starts [window]int64
	// Without a ping lane, the rank-0 round trip is a bulk send's
	// completion: Isend until its Wait returns.
	sendRTT := !r.w.ping
	wait := func(k int) bool {
		slot := k % window
		_, err := reqs[slot].Wait()
		t := now()
		if err != nil {
			r.fail(true, "bulk %d send: %v", k, err)
			return false
		}
		if sendRTT {
			out.rtt.record(r.sub.Load(), t-starts[slot])
		}
		return true
	}
	i := 0
	for ; !r.stop.Load(); i++ {
		r.progress[idxBulkSender].Store(int64(i))
		if i >= window && !wait(i-window) {
			return
		}
		buf := bufs[i%len(bufs)]
		pay.stamp(buf, i)
		r.attempted.Add(1)
		root := r.traceRoot(lt, opBulk, i)
		t0 := now()
		r.bulkStamp[i%len(r.bulkStamp)].Store(t0)
		starts[i%window] = t0
		req, err := lt.isend(c, root, 1, bulkTag(i), buf)
		if err != nil {
			r.fail(true, "bulk %d isend: %v", i, err)
			return
		}
		reqs[i%window] = req
	}
	for k := max(0, i-window); k < i; k++ {
		if !wait(k) {
			return
		}
	}
	// A zero-length message tells the receiver to stop.
	if err := c.Send(1, bulkTag(i), nil); err != nil {
		r.fail(true, "bulk stop marker: %v", err)
	}
}

// bulkReceiver is rank 1's side of the stream: Recv each message in
// order and verify every byte.
func (r *runner) bulkReceiver(out *laneOut) {
	c := r.c.comms[1]
	pay := r.bulkPay
	lt := out.tr
	for i := 0; ; i++ {
		r.progress[idxBulkReceiver].Store(int64(i))
		root := r.traceRoot(lt, opBulk, i)
		data, err := lt.recv(c, root, 0, bulkTag(i))
		t := now()
		if err != nil {
			r.fail(true, "bulk %d recv: %v", i, err)
			return
		}
		if len(data) == 0 {
			return
		}
		sent := r.bulkStamp[i%len(r.bulkStamp)].Load()
		if root != 0 {
			lt.root(root, bulkTag(i), sent, t)
		}
		if !pay.check(data, i) {
			r.fail(false, "bulk %d: corrupt payload at rank 1", i)
			continue
		}
		out.xfer.record(r.sub.Load(), t-sent)
	}
}
