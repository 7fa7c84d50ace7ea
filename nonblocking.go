package icc

// Non-blocking collectives: each I* variant validates its arguments, finds
// or builds the cached plan and enqueues its execution on the
// communicator's progress goroutine, returning a Request immediately. The
// caller overlaps computation with the collective and completes it with
// Wait or polls with Test. Requests on one communicator execute strictly in
// issue order, so the SPMD discipline is the same as for the blocking
// calls: every member issues the same collectives in the same order. The
// argument buffers must not be touched between issue and completion.

// issue is the non-blocking completion mode: validate the bound buffers and
// hand the plan to the progress engine.
func issue(b boundPlan, err error) (*Request, error) {
	b, err = later(b, err)
	if err != nil {
		return nil, err
	}
	req := newRequest()
	b.c.prog.issue(b.run, req)
	return req, nil
}

// IBcast is the non-blocking Bcast.
func (c *Comm) IBcast(buf []byte, count int, dt Type, root int) (*Request, error) {
	return issue(c.bcast(buf, count, dt, root))
}

// IReduce is the non-blocking Reduce.
func (c *Comm) IReduce(send, recv []byte, count int, dt Type, op Op, root int) (*Request, error) {
	return issue(c.reduce(send, recv, count, dt, op, root))
}

// IAllReduce is the non-blocking AllReduce.
func (c *Comm) IAllReduce(send, recv []byte, count int, dt Type, op Op) (*Request, error) {
	return issue(c.allReduce(send, recv, count, dt, op))
}

// IScatter is the non-blocking equal-count Scatter.
func (c *Comm) IScatter(send, recv []byte, count int, dt Type, root int) (*Request, error) {
	return issue(c.scatter(send, count, nil, false, recv, dt, root))
}

// IGather is the non-blocking equal-count Gather.
func (c *Comm) IGather(send, recv []byte, count int, dt Type, root int) (*Request, error) {
	return issue(c.gather(send, count, nil, false, recv, dt, root))
}

// ICollect is the non-blocking equal-count Collect.
func (c *Comm) ICollect(send, recv []byte, count int, dt Type) (*Request, error) {
	return issue(c.collect(send, count, nil, false, recv, dt))
}

// IAllToAll is the non-blocking equal-count AllToAll.
func (c *Comm) IAllToAll(send, recv []byte, count int, dt Type) (*Request, error) {
	return issue(c.allToAll(send, recv, count, dt))
}

// IBarrier is the non-blocking Barrier.
func (c *Comm) IBarrier() (*Request, error) {
	return issue(c.barrier())
}
