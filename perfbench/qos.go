package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/protocol"
)

func (r *rig) setupQoS() error {
	var err error
	if r.cl2, err = client.Dial(r.srv.Addr()); err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	r.acked = make([]atomic.Uint64, r.blocks)
	r.sentSeq = make([]atomic.Uint64, r.blocks)
	r.lcHandle, err = r.cl.Register(protocol.Registration{
		ReadPercent: 100, IOPS: qosLCReserve, LatencyP95: uint64(qosLCSLO),
	})
	if err != nil {
		return fmt.Errorf("register LC tenant: %w", err)
	}
	for i := 0; i < qosBETenants; i++ {
		h, err := r.cl2.Register(protocol.Registration{
			BestEffort: true, ReadPercent: uint8(beReadPct(i)), Writable: true,
		})
		if err != nil {
			return fmt.Errorf("register BE tenant %d: %w", i, err)
		}
		r.beHandles = append(r.beHandles, h)
	}
	for i := 0; i < qosLCWarmReads; i++ {
		block := uint32(i*7919) % r.blocks
		a0 := r.acked[block].Load()
		c, err := r.cl.GoRead(r.lcHandle, lba(block), blockBytes)
		if err != nil {
			return fmt.Errorf("warm LC read: %w", err)
		}
		<-c.Done
		if c.Err != nil {
			return fmt.Errorf("warm LC read: %w", c.Err)
		}
		if _, ok := r.checkShared(block, c.Data, a0); !ok {
			return fmt.Errorf("warm LC read of block %d returned wrong bytes", block)
		}
	}
	r.be = r.newBELoop(r.seed ^ 0x5eed)
	warm := make([]int, qosBETenants)
	r.be.run(nil, func(s *beSlot) bool {
		warm[s.tenant]++
		return warm[s.tenant] <= qosBEWarmOps
	})
	return r.be.err
}

// beReadPct alternates read-heavy and write-heavy tenants (Fig. 5's
// tenants C and D).
func beReadPct(i int) int {
	if i%2 == 0 {
		return 95
	}
	return 25
}

// checkShared checks a qos_tenants read against the block owner's write
// history: the block must carry a sequence number no older than the
// owner's last acknowledged write when the read was sent (a0), and no
// newer than its last sent write now. It returns that range.
func (r *rig) checkShared(block uint32, data []byte, a0 uint64) (string, bool) {
	seq, ok := unstamp(data, lba(block))
	i1 := r.sentSeq[block].Load()
	return fmt.Sprintf("%d..%d", a0, i1), ok && seq >= a0 && seq <= i1
}

// submit calls f, timing it in traced passes (client.submit_ns).
func (r *rig) submit(f func() (*client.Call, error)) (*client.Call, error) {
	if !r.traced {
		return f()
	}
	t0 := time.Now()
	c, err := f()
	r.submitT.Add(int64(time.Since(t0)))
	r.submitN.Add(1)
	return c, err
}

// beSlot is one best-effort tenant and its one outstanding request.
type beSlot struct {
	tenant int
	h      uint16
	gen    *beGen
	seq    uint64 // last write sequence number the tenant sent
	o      op
	c      *client.Call
	a0     uint64 // reads: the owner's acked sequence when sent
	start  time.Time
	buf    []byte
}

// beLoop drives every best-effort tenant from one goroutine: each tenant
// keeps one request outstanding, and completions are taken in the order
// the requests were sent (the scheduler serves BE tenants round-robin).
// One goroutine instead of one per tenant keeps the client's own
// scheduling out of the LC generator's way.
type beLoop struct {
	r     *rig
	slots []*beSlot
	err   error
}

func (r *rig) newBELoop(seed uint64) *beLoop {
	b := &beLoop{r: r}
	for i, h := range r.beHandles {
		b.slots = append(b.slots, &beSlot{
			tenant: i, h: h, buf: make([]byte, blockBytes),
			gen: newBEGen(seed, uint32(i), qosBETenants, r.blocks, beReadPct(i)),
		})
	}
	return b
}

// send sends the slot's next op.
func (b *beLoop) send(s *beSlot, m *meter) error {
	r := b.r
	s.o = s.gen.next()
	var err error
	if s.o.kind == opWrite {
		s.seq++
		r.sentSeq[s.o.block].Store(s.seq)
		stamp(s.buf, lba(s.o.block), s.seq)
		s.start = time.Now()
		s.c, err = r.submit(func() (*client.Call, error) { return r.cl2.GoWrite(s.h, lba(s.o.block), s.buf) })
	} else {
		s.a0 = r.acked[s.o.block].Load()
		s.start = time.Now()
		s.c, err = r.submit(func() (*client.Call, error) { return r.cl2.GoRead(s.h, lba(s.o.block), blockBytes) })
	}
	if err != nil {
		return fmt.Errorf("BE submit: %w", err)
	}
	if m != nil {
		m.attempted.Add(1)
	}
	return nil
}

// complete waits for the slot's request and checks and counts it.
func (b *beLoop) complete(s *beSlot, m *meter) error {
	<-s.c.Done
	lat := time.Since(s.start)
	write := s.o.kind == opWrite
	err := s.c.Err
	if err == nil && !write {
		if want, ok := b.r.checkShared(s.o.block, s.c.Data, s.a0); !ok {
			if m == nil {
				return fmt.Errorf("warm-up read of block %d returned wrong bytes", s.o.block)
			}
			m.noteWrong(s.o.block, s.c.Data, want)
			err = errWrongBytes
		}
	}
	if err == nil && write {
		b.r.acked[s.o.block].Store(s.seq)
	}
	if m == nil {
		if err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
		return nil
	}
	m.opsAll.Add(1)
	if err != nil {
		m.failed.Add(1)
		if !errors.Is(err, errWrongBytes) {
			m.otherErr.Add(1)
		}
		return nil
	}
	m.opsMain.Add(1)
	m.recordTail(time.Now(), lat)
	m.recordOp(write, lat)
	return nil
}

var errWrongBytes = errors.New("read returned wrong bytes")

// run sends one op per tenant and keeps going while more says the
// completed slot's tenant should send another; it returns once every
// tenant has stopped.
func (b *beLoop) run(m *meter, more func(*beSlot) bool) {
	fifo := make([]*beSlot, 0, 2*len(b.slots))
	for _, s := range b.slots {
		if b.err = b.send(s, m); b.err != nil {
			return
		}
		fifo = append(fifo, s)
	}
	for len(fifo) > 0 {
		s := fifo[0]
		fifo = fifo[1:]
		if b.err = b.complete(s, m); b.err != nil {
			return
		}
		if !more(s) {
			continue
		}
		if b.err = b.send(s, m); b.err != nil {
			return
		}
		fifo = append(fifo, s)
	}
}

// lcCall is one LC read in flight, with when it was due and sent.
type lcCall struct {
	c     *client.Call
	block uint32
	a0    uint64
	due   time.Time
	sent  time.Time
}

// driveQoS runs qos_tenants until the meter's end: the LC tenant open
// loop at qosLCRate on the first connection, every BE tenant closed loop
// with one request outstanding on the second.
func (r *rig) driveQoS(m *meter) error {
	for _, s := range r.be.slots {
		s.gen = newBEGen(r.seed, uint32(s.tenant), qosBETenants, r.blocks, beReadPct(s.tenant))
	}
	// op_p50_us is the LC read median from due; op_p90_us the BE op tail.
	m.tail = make(windows, len(m.lat))
	m.begin()
	beDone := make(chan struct{})
	go func() {
		defer close(beDone)
		r.be.run(m, func(*beSlot) bool { return !m.over(time.Now()) })
	}()

	// The reaper completes LC reads in send order. The channel holds
	// every LC read that can be outstanding: one second at the LC rate.
	pending := make(chan lcCall, qosLCRate)
	reaped := make(chan struct{})
	go func() {
		defer close(reaped)
		for f := range pending {
			<-f.c.Done
			now := time.Now()
			m.opsAll.Add(1)
			if f.c.Err != nil {
				m.failed.Add(1)
				m.otherErr.Add(1)
				continue
			}
			if want, ok := r.checkShared(f.block, f.c.Data, f.a0); !ok {
				m.failed.Add(1)
				m.noteWrong(f.block, f.c.Data, want)
				continue
			}
			m.recordMain(now, now.Sub(f.due))
			m.recordOp(false, now.Sub(f.sent))
		}
	}()

	g := &uniformGen{r: newRand(r.seed, 1), blocks: r.blocks}
	gap := time.Second / qosLCRate
	due := m.start
	var err error
	for err == nil {
		now := time.Now()
		if m.over(now) {
			break
		}
		for !due.After(now) && err == nil {
			block := g.next().block
			a0 := r.acked[block].Load()
			sent := time.Now()
			var c *client.Call
			c, err = r.submit(func() (*client.Call, error) { return r.cl.GoRead(r.lcHandle, lba(block), blockBytes) })
			if err != nil {
				break
			}
			m.attempted.Add(1)
			r.late.Record(int64(sent.Sub(due)))
			pending <- lcCall{c: c, block: block, a0: a0, due: due, sent: sent}
			due = due.Add(gap)
		}
		// time.Sleep overshoots sub-millisecond gaps by about half a
		// millisecond; nanosleep wakes within tens of microseconds.
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil) // an early wake-up only loops again
		}
	}
	close(pending)
	<-reaped
	<-beDone
	m.finish()
	if err != nil {
		return fmt.Errorf("LC submit: %w", err)
	}
	if r.be.err != nil {
		return r.be.err
	}
	return nil
}
