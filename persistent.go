package icc

import "fmt"

// Persistent collectives (MPI-style *_init): Init validates the arguments,
// finds or builds the cached plan and binds the argument buffers once;
// every Start then runs the bound plan on the progress goroutine. The plan
// is the same one a blocking or non-blocking call with the same signature
// uses.

// Persistent is an initialized collective: a cached plan pinned to a set
// of argument buffers. Start begins one execution (reading the send buffer
// as of that moment), Wait completes it; the cycle may repeat any number
// of times. Start/Wait pairs must not overlap on one handle, and the bound
// buffers must not be touched while an execution is in flight.
type Persistent struct {
	b     boundPlan
	req   *Request
	freed bool
}

// Start begins one execution of the persistent collective on the
// communicator's progress goroutine. It is an error to Start again before
// Wait, or after Free.
func (p *Persistent) Start() error {
	if p.freed {
		return fmt.Errorf("icc: Start on a freed persistent handle")
	}
	if p.req != nil {
		if done, _ := p.req.Test(); !done {
			return fmt.Errorf("icc: Start while a previous start is in flight")
		}
	}
	p.req = newRequest()
	p.b.c.prog.issue(p.b.run, p.req)
	return nil
}

// Wait blocks until the started execution completes and returns its error.
func (p *Persistent) Wait() error {
	if p.req == nil {
		return fmt.Errorf("icc: Wait without Start")
	}
	return p.req.Wait()
}

// Test reports whether the started execution has completed.
func (p *Persistent) Test() (bool, error) {
	if p.req == nil {
		return false, fmt.Errorf("icc: Test without Start")
	}
	return p.req.Test()
}

// Free releases the handle. The underlying plan stays cached on the
// communicator for future handles; outstanding executions still complete.
func (p *Persistent) Free() { p.freed = true }

// persist is the persistent completion mode: validate the bound buffers and
// keep the plan in a handle.
func persist(b boundPlan, err error) (*Persistent, error) {
	b, err = later(b, err)
	if err != nil {
		return nil, err
	}
	return &Persistent{b: b}, nil
}

// BcastInit initializes a persistent broadcast of count elements of dt
// from root, in place in buf.
func (c *Comm) BcastInit(buf []byte, count int, dt Type, root int) (*Persistent, error) {
	return persist(c.bcast(buf, count, dt, root))
}

// ReduceInit initializes a persistent reduce; recv is written at root.
func (c *Comm) ReduceInit(send, recv []byte, count int, dt Type, op Op, root int) (*Persistent, error) {
	return persist(c.reduce(send, recv, count, dt, op, root))
}

// AllReduceInit initializes a persistent all-reduce.
func (c *Comm) AllReduceInit(send, recv []byte, count int, dt Type, op Op) (*Persistent, error) {
	return persist(c.allReduce(send, recv, count, dt, op))
}

// ScatterInit initializes a persistent equal-count scatter: count elements
// of dt to each rank from root's send vector.
func (c *Comm) ScatterInit(send, recv []byte, count int, dt Type, root int) (*Persistent, error) {
	return persist(c.scatter(send, count, nil, false, recv, dt, root))
}

// GatherInit initializes a persistent equal-count gather into root's recv.
func (c *Comm) GatherInit(send, recv []byte, count int, dt Type, root int) (*Persistent, error) {
	return persist(c.gather(send, count, nil, false, recv, dt, root))
}

// CollectInit initializes a persistent equal-count all-gather.
func (c *Comm) CollectInit(send, recv []byte, count int, dt Type) (*Persistent, error) {
	return persist(c.collect(send, count, nil, false, recv, dt))
}

// AllToAllInit initializes a persistent equal-count complete exchange.
func (c *Comm) AllToAllInit(send, recv []byte, count int, dt Type) (*Persistent, error) {
	return persist(c.allToAll(send, recv, count, dt))
}

// BarrierInit initializes a persistent barrier.
func (c *Comm) BarrierInit() (*Persistent, error) {
	return persist(c.barrier())
}
