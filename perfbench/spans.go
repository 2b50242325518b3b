package main

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pioman/internal/mpi"
	"pioman/internal/nmad"
)

// layer names the runtime layer a span's time belongs to.
type layer uint8

const (
	layerOp     layer = iota // root: one whole operation as the application sees it
	layerMPI                 // a blocking mpi call (Comm.Send / Comm.Recv)
	layerSubmit              // the nmad submit call inside it (Isend / Irecv)
	layerWait                // nmad Request.Wait inside it (progression, core queueing)
	layerFabric              // a frame on the rail: Driver.Send start to the peer's Driver.Poll
	numLayers
)

// span is one recorded interval. Spans of one operation share the root's
// id through their parent chain; fabric spans carry no parent and are
// attached to their operation by tag and time when the ledger is built.
type span struct {
	id, parent int64
	start, end int64 // now() nanoseconds
	tag        int32
	layer      layer
}

// Operation kinds, the high bits of a root span id. Both ranks derive an
// operation's root id from its kind and index, so the peer's spans join
// the same tree without any exchange.
const (
	opPing = 1
	opBulk = 2
)

func opID(kind, i int) int64 { return int64(kind)<<40 | int64(i) }

// firstSpanID starts non-root ids above every root id.
const firstSpanID = 1 << 50

// laneTrace records one load goroutine's spans in memory. A nil
// *laneTrace records nothing and its calls are the plain blocking mpi
// calls users make.
type laneTrace struct {
	ids    *atomic.Int64
	spans  []span
	sendNs []int64 // durations of send submit calls
}

func (lt *laneTrace) add(parent int64, l layer, tag int, start, end int64) int64 {
	id := lt.ids.Add(1)
	lt.spans = append(lt.spans, span{id: id, parent: parent, start: start, end: end, tag: int32(tag), layer: l})
	return id
}

func (lt *laneTrace) root(id int64, tag int, start, end int64) {
	lt.spans = append(lt.spans, span{id: id, start: start, end: end, tag: int32(tag), layer: layerOp})
}

// send is Comm.Send. Under a traced root it makes the call as the two
// public halves Comm.Send is built from (Isend, then Request.Wait), so
// the nmad submit and the wait each get a span inside the mpi span.
func (lt *laneTrace) send(c *mpi.Comm, root int64, dst, tag int, data []byte) error {
	if root == 0 {
		return c.Send(dst, tag, data)
	}
	m0 := now()
	t0 := now()
	req, err := c.Isend(dst, tag, data)
	t1 := now()
	t2 := t1
	if err == nil {
		_, err = req.Wait()
		t2 = now()
	}
	m1 := now()
	lt.sendNs = append(lt.sendNs, t1-t0)
	m := lt.add(root, layerMPI, tag, m0, m1)
	lt.add(m, layerSubmit, tag, t0, t1)
	lt.add(m, layerWait, tag, t1, t2)
	return err
}

// recv is Comm.Recv from one source, split like send when traced.
func (lt *laneTrace) recv(c *mpi.Comm, root int64, src, tag int) ([]byte, error) {
	if root == 0 {
		data, _, err := c.Recv(src, tag)
		return data, err
	}
	m0 := now()
	t0 := now()
	req, err := c.Irecv(src, tag)
	t1 := now()
	t2 := t1
	var data []byte
	if err == nil {
		data, err = req.Wait()
		t2 = now()
	}
	m1 := now()
	m := lt.add(root, layerMPI, tag, m0, m1)
	lt.add(m, layerSubmit, tag, t0, t1)
	lt.add(m, layerWait, tag, t1, t2)
	return data, err
}

// isend is Comm.Isend; traced, its submit call is a span of the root.
func (lt *laneTrace) isend(c *mpi.Comm, root int64, dst, tag int, data []byte) (*mpi.Request, error) {
	if root == 0 {
		return c.Isend(dst, tag, data)
	}
	t0 := now()
	req, err := c.Isend(dst, tag, data)
	t1 := now()
	lt.sendNs = append(lt.sendNs, t1-t0)
	lt.add(root, layerSubmit, tag, t0, t1)
	return req, err
}

// ---- mpi's own time ----

// mpiCalls is how many 8 B messages mpiSelf sends.
const mpiCalls = 10000

// mpiSelf estimates the time mpi's own code (tag check, gate lookup,
// request wrapper) adds to one Isend plus one Irecv. That code runs
// inside the Comm calls, where no span opened around them can separate
// it from nmad's, so it is measured directly. mpi's code does not depend
// on the rail, so the measurement uses a fresh in-process pair, where
// the submit calls are cheap and steady: rank 0 sends n 8 B messages and
// rank 1 receives each once it has arrived, alternating between the
// Comm calls and the same calls made on the gates, so both paths see the
// same protocol state. The result is, per call kind, the median Comm
// submit time minus the median gate submit time, summed over the two
// kinds, in nanoseconds.
func mpiSelf(n int) (float64, error) {
	c, err := connect(workload{name: "mpi-self"}, nil)
	if err != nil {
		return 0, err
	}
	defer c.close()
	gates := [2]*nmad.Gate{c.engines[0].Gates()[0], c.engines[1].Gates()[0]}
	var viaComm, viaGate [2][]int64 // isend, irecv submit durations
	msg := []byte("mpi-self")
	for i := 0; i < n; i++ {
		comm := i%2 == 0
		var sm, rm *mpi.Request
		var sg, rg *nmad.Request
		t0 := now()
		if comm {
			sm, err = c.comms[0].Isend(1, tagMPISelf, msg)
		} else {
			sg = gates[0].Isend(tagMPISelf, msg)
		}
		t1 := now()
		if err == nil {
			_, err = waitEither(sm, sg)
		}
		deadline := time.Now().Add(roundTripDeadline)
		for err == nil && !gates[1].Unexpected(tagMPISelf) {
			if time.Now().After(deadline) {
				err = fmt.Errorf("message %d not delivered after %v", i, roundTripDeadline)
			}
			runtime.Gosched()
		}
		if err != nil {
			return 0, err
		}
		t2 := now()
		if comm {
			rm, err = c.comms[1].Irecv(0, tagMPISelf)
		} else {
			rg = gates[1].Irecv(tagMPISelf)
		}
		t3 := now()
		var data []byte
		if err == nil {
			data, err = waitEither(rm, rg)
		}
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(data, msg) {
			return 0, fmt.Errorf("message %d arrived corrupt", i)
		}
		d := &viaGate
		if comm {
			d = &viaComm
		}
		d[0] = append(d[0], t1-t0)
		d[1] = append(d[1], t3-t2)
	}
	var self float64
	for k := range viaComm {
		self += percentile(sortedCopy(viaComm[k]), 0.5) - percentile(sortedCopy(viaGate[k]), 0.5)
	}
	return self, nil
}

// waitEither waits for whichever of an mpi and a gate request is set and
// returns its data, as mpi.Request.Wait does.
func waitEither(m *mpi.Request, n *nmad.Request) ([]byte, error) {
	if m != nil {
		return m.Wait()
	}
	if err := n.Wait(); err != nil {
		return nil, err
	}
	return n.Data, nil
}

// ---- Rail timing decorator ----

// frameKey identifies a frame on one direction of a link.
type frameKey struct {
	kind   nmad.Kind
	tag    uint64
	msgID  uint64
	offset uint32
}

// direction is one way of a link: frames one rank sends and the other
// polls.
type direction struct {
	inflight map[frameKey]int64 // Send start of frames not yet polled
	lastEnd  int64              // when the previous frame was polled
}

// fabricLog times both rails of a traced cluster. It records only while
// enabled (the measured window).
type fabricLog struct {
	enabled atomic.Bool
	drivers [2]*timedDriver

	mu         sync.Mutex
	dirs       [2]direction // dirs[r]: frames sent by rank r
	deliveries []span       // rail time per frame, queued behind its predecessor excluded
	deliverNs  []int64      // raw Send-start to Poll-return per frame
	sendNs     []int64      // Driver.Send call durations
	sendBytes  int64        // payload bytes handed to Driver.Send
}

func newFabricLog() *fabricLog {
	fl := &fabricLog{}
	for r := range fl.dirs {
		fl.dirs[r].inflight = make(map[frameKey]int64)
	}
	return fl
}

// wrapPair wraps rank 0's and rank 1's rails.
func (fl *fabricLog) wrapPair(d0, d1 nmad.Driver) (nmad.Driver, nmad.Driver) {
	fl.drivers[0] = &timedDriver{Driver: d0, log: fl, out: &fl.dirs[0], in: &fl.dirs[1]}
	fl.drivers[1] = &timedDriver{Driver: d1, log: fl, out: &fl.dirs[1], in: &fl.dirs[0]}
	return fl.drivers[0], fl.drivers[1]
}

// polls returns how many Poll calls both rails saw while enabled, and
// how many of them returned a frame.
func (fl *fabricLog) polls() (polls, hits int64) {
	for _, d := range fl.drivers {
		polls += d.polls.Load()
		hits += d.hits.Load()
	}
	return polls, hits
}

// timedDriver decorates an nmad.Driver with timing. It keeps the wrapped
// driver's Name, so NewGate picks the same capability envelope and frame
// fast path as for the bare driver.
type timedDriver struct {
	nmad.Driver
	log     *fabricLog
	out, in *direction
	polls   atomic.Int64
	hits    atomic.Int64
}

func keyOf(h nmad.Header) frameKey {
	return frameKey{kind: h.Kind, tag: h.Tag, msgID: h.MsgID, offset: h.Offset}
}

func (d *timedDriver) Send(hdr nmad.Header, payload []byte) error {
	fl := d.log
	if !fl.enabled.Load() {
		return d.Driver.Send(hdr, payload)
	}
	t0 := now()
	// Stamp before sending: the peer may poll the frame before Send
	// returns.
	fl.mu.Lock()
	d.out.inflight[keyOf(hdr)] = t0
	fl.mu.Unlock()
	err := d.Driver.Send(hdr, payload)
	t1 := now()
	fl.mu.Lock()
	fl.sendNs = append(fl.sendNs, t1-t0)
	fl.sendBytes += int64(len(payload))
	fl.mu.Unlock()
	return err
}

func (d *timedDriver) Poll() (nmad.Frame, bool, error) {
	f, ok, err := d.Driver.Poll()
	fl := d.log
	if !fl.enabled.Load() {
		return f, ok, err
	}
	d.polls.Add(1)
	if !ok {
		return f, ok, err
	}
	t := now()
	d.hits.Add(1)
	k := keyOf(f.Hdr)
	fl.mu.Lock()
	if t0, found := d.in.inflight[k]; found {
		delete(d.in.inflight, k)
		fl.deliverNs = append(fl.deliverNs, t-t0)
		// Frames on one direction are polled in order; the time a frame
		// spent queued behind its predecessor is that predecessor's.
		start := max(t0, d.in.lastEnd)
		d.in.lastEnd = t
		fl.deliveries = append(fl.deliveries, span{start: start, end: t, tag: int32(f.Hdr.Tag), layer: layerFabric})
	}
	fl.mu.Unlock()
	return f, ok, err
}

// ---- Ledger ----

// interval is a half-open [start, end) time range.
type interval struct{ start, end int64 }

// covered returns how much of within the union of ivs covers.
func covered(within interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, within.start), min(iv.end, within.end)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start < clipped[b].start })
	var total int64
	cur := interval{-1 << 62, -1 << 62}
	for _, iv := range clipped {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		cur.end = max(cur.end, iv.end)
	}
	return total + cur.end - cur.start
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s interval, children []interval) int64 {
	return s.end - s.start - covered(s, children)
}

// ledger splits operation time into layer self times.
type ledger struct {
	ops    int
	rootNs int64            // summed root durations
	self   [numLayers]int64 // summed self time per layer; self[layerOp] is the time no span covers
}

// opTag maps a frame or span tag to the tag its operation's root carries:
// a ping operation's pong and the ping share one root.
func opTag(tag int32) int32 {
	if tag == tagPong {
		return tagPing
	}
	return tag
}

// buildLedger assembles each recorded root's span tree and sums self
// times per layer. App spans name their parent; a fabric span joins the
// operation whose root has its tag and contains its start, under the
// deepest span of that operation containing its start. Every span is
// clipped to its parent, so a tree whose siblings never overlap sums to
// exactly its root.
func buildLedger(app, fab []span) ledger {
	nodes := make([]span, 0, len(app)+len(fab))
	nodes = append(nodes, app...)
	index := make(map[int64]int, len(app))
	for i, s := range nodes {
		index[s.id] = i
	}
	rootOf := func(i int) (int, int) { // root index and depth
		depth := 0
		for nodes[i].layer != layerOp {
			p, ok := index[nodes[i].parent]
			if !ok || depth > 8 {
				return -1, 0
			}
			i = p
			depth++
		}
		return i, depth
	}
	members := make(map[int][]int) // root index -> member indices (root included)
	depthOf := make([]int, len(nodes))
	var roots []int
	for i := range nodes {
		r, d := rootOf(i)
		if r < 0 {
			continue
		}
		depthOf[i] = d
		members[r] = append(members[r], i)
		if r == i {
			roots = append(roots, i)
		}
	}
	// Attach fabric spans.
	byTag := make(map[int32][]int)
	for _, r := range roots {
		t := opTag(nodes[r].tag)
		byTag[t] = append(byTag[t], r)
	}
	for _, rs := range byTag {
		slices.SortFunc(rs, func(a, b int) int { return cmp.Compare(nodes[a].start, nodes[b].start) })
	}
	for _, f := range fab {
		rs := byTag[opTag(f.tag)]
		k := sort.Search(len(rs), func(k int) bool { return nodes[rs[k]].start > f.start }) - 1
		if k < 0 || f.start >= nodes[rs[k]].end {
			continue
		}
		r := rs[k]
		parent := r
		for _, m := range members[r] {
			if nodes[m].start <= f.start && f.start < nodes[m].end && depthOf[m] > depthOf[parent] {
				parent = m
			}
		}
		f.parent = nodes[parent].id
		f.id = -int64(len(nodes)) // fabric spans are leaves; any unique id
		nodes = append(nodes, f)
		depthOf = append(depthOf, depthOf[parent]+1)
		members[r] = append(members[r], len(nodes)-1)
	}

	var lg ledger
	for _, r := range roots {
		ms := members[r]
		// Clip top-down: parents before children.
		slices.SortFunc(ms, func(a, b int) int { return depthOf[a] - depthOf[b] })
		clip := make(map[int64]interval, len(ms))
		kids := make(map[int64][]interval, len(ms))
		for _, m := range ms {
			s := nodes[m]
			iv := interval{s.start, s.end}
			if m != r {
				p := clip[s.parent]
				iv = interval{max(iv.start, p.start), min(iv.end, p.end)}
				if iv.start >= iv.end {
					iv = interval{p.start, p.start}
				}
				kids[s.parent] = append(kids[s.parent], iv)
			}
			clip[s.id] = iv
		}
		for _, m := range ms {
			s := nodes[m]
			lg.self[s.layer] += selfTime(clip[s.id], kids[s.id])
		}
		lg.ops++
		lg.rootNs += nodes[r].end - nodes[r].start
	}
	return lg
}

// tieout is the layer self times plus the uncovered time, as a share of
// the summed root durations: 1 when the trees nest without overlap.
func (lg ledger) tieout() float64 {
	var sum int64
	for _, s := range lg.self {
		sum += s
	}
	return float64(sum) / float64(lg.rootNs)
}
