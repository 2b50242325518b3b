package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"pioman/internal/mpi"
	"pioman/internal/nmad"
)

// workload is one traffic mix. Every workload runs two ranks in one
// process with default engine configuration; they differ in the rail
// between the ranks and in which load lanes run.
type workload struct {
	name string
	// tcp wires the ranks over one loopback TCP connection instead of an
	// in-process memory rail.
	tcp bool
	// ping runs the 8 B ping-pong lane (client on rank 0, echo on rank 1).
	ping bool
	// bulk runs the 1 MiB streaming lane (window-4 sender on rank 0,
	// verifying receiver on rank 1).
	bulk bool
}

var workloads = []workload{
	{name: "pingpong-mem", ping: true},
	{name: "stream-1m-mem", bulk: true},
	{name: "mixed-tcp", tcp: true, ping: true, bulk: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// traffic names where the workload's bytes travel.
func (w workload) traffic() string {
	if w.tcp {
		return "loopback-tcp"
	}
	return "in-process"
}

// cluster is two connected ranks.
type cluster struct {
	engines [2]*nmad.Engine
	comms   [2]*mpi.Comm
	ln      net.Listener
}

// wire builds the two ranks of w. Untraced in-process clusters come from
// mpi.LocalCluster, the way users build them; everything else is wired
// by hand (engine, rail, gate, communicator), as examples/tcpcluster
// does. A non-nil fl wraps both rails in its timing decorator.
func wire(w workload, fl *fabricLog) (*cluster, error) {
	if !w.tcp && fl == nil {
		comms, engines, err := mpi.LocalCluster(2, nmad.Config{})
		if err != nil {
			return nil, err
		}
		return &cluster{engines: [2]*nmad.Engine(engines), comms: [2]*mpi.Comm(comms)}, nil
	}
	c := &cluster{}
	var rails [2]nmad.Driver
	if w.tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		c.ln = ln
		type accepted struct {
			d   nmad.Driver
			err error
		}
		ch := make(chan accepted, 1)
		go func() {
			d, err := nmad.AcceptTCP(ln)
			ch <- accepted{d, err}
		}()
		d0, err := nmad.DialTCP(ln.Addr().String())
		if err != nil {
			ln.Close() // unblocks the accept
			<-ch
			return nil, fmt.Errorf("dial: %w", err)
		}
		a := <-ch
		if a.err != nil {
			d0.Close()
			ln.Close()
			return nil, fmt.Errorf("accept: %w", a.err)
		}
		rails = [2]nmad.Driver{d0, a.d}
	} else {
		rails[0], rails[1] = nmad.MemPair()
	}
	if fl != nil {
		rails[0], rails[1] = fl.wrapPair(rails[0], rails[1])
	}
	for rank := range rails {
		eng := nmad.NewEngine(nmad.Config{})
		c.engines[rank] = eng
		g, err := eng.NewGate(rails[rank])
		if err != nil {
			c.close()
			return nil, fmt.Errorf("rank %d gate: %w", rank, err)
		}
		c.comms[rank] = mpi.NewComm(rank, eng)
		c.comms[rank].Connect(1-rank, g)
	}
	return c, nil
}

// roundTripDeadline bounds one set-up round trip; past it the cluster is
// diagnosed and closed, which fails the blocked calls.
const roundTripDeadline = 10 * time.Second

// roundTrip completes one 8 B exchange between the ranks, the last step
// of set-up: the cluster is usable once a message has gone both ways.
func (c *cluster) roundTrip() error {
	watchdog := time.AfterFunc(roundTripDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: set-up round trip not done after %v:\n", roundTripDeadline)
		c.diagnose(os.Stderr)
		c.close()
	})
	defer watchdog.Stop()
	msg := []byte("setup-rt")
	echoed := make(chan error, 1)
	go func() {
		data, _, err := c.comms[1].Recv(0, tagSetup)
		if err == nil {
			err = c.comms[1].Send(0, tagSetup, data)
		}
		echoed <- err
	}()
	err := c.comms[0].Send(1, tagSetup, msg)
	var data []byte
	if err == nil {
		data, _, err = c.comms[0].Recv(1, tagSetup)
	}
	if err != nil {
		c.close() // fails the echo's pending call
		<-echoed
		return err
	}
	if err := <-echoed; err != nil {
		return err
	}
	if string(data) != string(msg) {
		return errors.New("set-up round trip returned a corrupt payload")
	}
	return nil
}

// close stops both engines, which fails every pending request and closes
// the rails, and the TCP listener. Safe to call more than once.
func (c *cluster) close() {
	for _, e := range c.engines {
		if e != nil {
			e.Close()
		}
	}
	if c.ln != nil {
		c.ln.Close()
	}
}

// residue returns one line per gate that still holds protocol state,
// or nil when every gate is idle.
func (c *cluster) residue() []string {
	var out []string
	for rank, e := range c.engines {
		for _, g := range e.Gates() {
			if r := g.CheckIdle(); !r.Clean() {
				out = append(out, fmt.Sprintf("rank %d gate %d: %+v", rank, g.ID(), r))
			}
		}
	}
	return out
}

// diagnose writes both engines' counters, their task engines' counters
// and every gate's idle audit: what a stuck run needs explained.
func (c *cluster) diagnose(w io.Writer) {
	for rank, e := range c.engines {
		if e == nil {
			continue
		}
		fmt.Fprintf(w, "  rank %d nmad stats: %+v\n", rank, e.Stats())
		fmt.Fprintf(w, "  rank %d core stats: %+v\n", rank, e.Tasks().Stats())
		fmt.Fprintf(w, "  rank %d inflight protocol states: %d\n", rank, e.InflightStates())
		for _, g := range e.Gates() {
			fmt.Fprintf(w, "  rank %d gate %d idle audit: %+v\n", rank, g.ID(), g.CheckIdle())
		}
	}
}
