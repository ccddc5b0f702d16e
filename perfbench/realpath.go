package main

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/hist"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/server"
	"github.com/reflex-go/reflex/internal/storage"
)

// model is the device cost model of every real-path workload: the
// paper's device A (a read costs one token, a write ten).
var model = core.CostModel{
	ReadCost:         core.TokenUnit,
	ReadOnlyReadCost: core.TokenUnit / 2,
	WriteCost:        10 * core.TokenUnit,
}

// Workload sizes. The read cache is 2 MiB where the span must overflow it
// and 8 MiB where vol_hot's hot set must fit in it.
const (
	peakBlocks   = 16384 // read_peak span: 64 MiB, 32× the cache
	peakDepth    = 64
	peakWarmOps  = 20000
	peakCacheMiB = 2

	qosBlocks      = 16384 // qos_tenants span: 64 MiB, 32× the cache
	qosCacheMiB    = 2
	qosTokenRate   = 60_000        // read-tokens/s, below what one core sustains
	qosLCRate      = 5000          // LC reads/s, open loop
	qosLCReserve   = 2 * qosLCRate // LC IOPS reserved: room for the generator's catch-up bursts
	qosLCSLO       = time.Millisecond
	qosBETenants   = 256
	qosBEWarmOps   = 4
	qosLCWarmReads = 200

	volBlocks     = 4096 // vol_hot logical size: 16 MiB
	volExtBlocks  = 16   // 4 KiB blocks per volume extent (64 KiB)
	volPoolFactor = 4    // extent pool = 4 × logical size
	volCacheMiB   = 8    // holds vol_hot's Zipf hot set
	volDepth      = 64
	volZipfS      = 1.1
	volWritePct   = 10
	volSnapEvery  = 8192 // writes between rolling snapshots
	volKeepSnaps  = 2
	volWarmReads  = 50000
	volName       = "vm0"
	unlimitedRate = 100_000_000 // tokens/s: never the bottleneck
	setupsPerRun  = 5
)

// rig is one in-process server with its clients.
type rig struct {
	wl      string
	seed    uint64
	srv     *server.Server
	tb      *tracedBackend // nil in untraced passes
	cl      *client.Client
	cl2     *client.Client // qos_tenants' best-effort connection
	traced  bool
	blocks  uint32
	submitN atomic.Int64 // GoRead/GoWrite calls timed (traced)
	submitT atomic.Int64 // ns spent inside them (traced)

	// Per-block verification state. expect is for the single-goroutine
	// closed loops; acked/sentSeq for qos_tenants' concurrent tenants.
	expect  []uint64
	acked   []atomic.Uint64
	sentSeq []atomic.Uint64

	snapUs    []float64
	freed     int
	snaps     int
	deletes   int       // snapshot deletes
	pool      poolModel // vol_hot's extent pool as the client sees it
	resets    int       // volume resets forced by a full pool
	poolDrift int       // extents a volume delete freed beyond the model (or short of it)
	nospaceAt int64     // op index of the first StatusNoCapacity (-1 none)
	ioHandle  uint16
	lcHandle  uint16
	beHandles []uint16
	be        *beLoop
	late      hist.Hist // how late the LC generator sent (single writer)
}

// rigOpts selects how a rig's device is wrapped.
type rigOpts struct {
	// traced hands the server a tracedBackend and times client calls.
	traced bool
	// wrap, if set, wraps the device the server sees (tests inject
	// faults with it).
	wrap func(storage.Backend) storage.Backend
}

// newRig starts the workload's server and clients, preloads, registers
// tenants and warms up: everything setup_s measures.
func newRig(wl string, seed uint64, o rigOpts) (*rig, error) {
	r := &rig{wl: wl, seed: seed, traced: o.traced, nospaceAt: -1}
	cfg := server.Config{Addr: "127.0.0.1:0", Cores: 1, Model: model, TokenRate: unlimitedRate * core.TokenUnit}
	dev := int64(0)
	switch wl {
	case "read_peak":
		r.blocks, dev = peakBlocks, peakBlocks*blockBytes
		cfg.CacheBytes = peakCacheMiB << 20
	case "qos_tenants":
		r.blocks, dev = qosBlocks, qosBlocks*blockBytes
		cfg.CacheBytes = qosCacheMiB << 20
		cfg.TokenRate = qosTokenRate * core.TokenUnit
	case "vol_hot":
		r.blocks = volBlocks
		cfg.VolumeBytes = volPoolFactor * volBlocks * blockBytes
		cfg.VolumeExtentBlocks = volExtBlocks * sectorsPerBk
		dev = cfg.VolumeBytes + 4<<20
		cfg.CacheBytes = volCacheMiB << 20
	}
	mem := storage.NewMem(dev)
	var backend storage.Backend = mem
	if o.wrap != nil {
		backend = o.wrap(backend)
	}
	if o.traced {
		r.tb = &tracedBackend{Backend: backend}
		backend = r.tb
	}
	if wl != "vol_hot" {
		preload(mem, r.blocks)
	}
	srv, err := server.New(cfg, backend)
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	r.srv = srv
	if r.cl, err = client.Dial(srv.Addr()); err != nil {
		r.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	r.expect = make([]uint64, r.blocks)
	switch wl {
	case "read_peak":
		err = r.setupPeak()
	case "qos_tenants":
		err = r.setupQoS()
	case "vol_hot":
		err = r.setupVol()
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) close() {
	if r.cl != nil {
		r.cl.Close()
	}
	if r.cl2 != nil {
		r.cl2.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
}

// preload stamps every block of the span with its LBA and sequence 0.
func preload(mem *storage.Mem, blocks uint32) {
	buf := make([]byte, blockBytes)
	for b := uint32(0); b < blocks; b++ {
		stamp(buf, b*sectorsPerBk, 0)
		mem.WriteAt(buf, int64(b)*blockBytes) // in range by construction
	}
}

func (r *rig) setupPeak() error {
	h, err := r.cl.Register(protocol.Registration{BestEffort: true, ReadPercent: 100})
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	r.ioHandle = h
	l := r.newLoop(h, peakDepth, nil)
	g := &uniformGen{r: newRand(r.seed, 9), blocks: r.blocks}
	for i := 0; i < peakWarmOps; i++ {
		l.send(g.next())
	}
	l.drain()
	return l.err
}

func (r *rig) setupVol() error {
	r.pool = poolModel{total: volPoolFactor * volBlocks / volExtBlocks, touched: make([]bool, volBlocks/volExtBlocks)}
	if err := r.openVol(); err != nil {
		return err
	}
	// Thin volume: stamp every block (allocating every extent), then
	// warm the cache with reads from the workload's distribution.
	l := r.newLoop(r.ioHandle, volDepth, nil)
	r.stampVol(l)
	warm := newVolGen(r.seed^0x5eed, volBlocks, volZipfS, 0, 1, volDepth)
	for i := 0; i < volWarmReads; i++ {
		l.send(warm.next())
	}
	l.drain()
	return l.err
}

// openVol creates vol_hot's volume and binds a tenant to it.
func (r *rig) openVol() error {
	vh, err := r.cl.VolCreate(volName, volBlocks*sectorsPerBk)
	if err != nil {
		return fmt.Errorf("create volume: %w", err)
	}
	h, err := r.cl.OpenVolume(protocol.Registration{BestEffort: true, ReadPercent: 90, Writable: true}, vh)
	if err != nil {
		return fmt.Errorf("open volume: %w", err)
	}
	r.ioHandle = h
	return nil
}

// stampVol writes every block of a fresh volume with sequence 0 and
// waits for all of them, so no read can race a stamp.
func (r *rig) stampVol(l *loop) {
	for b := uint32(0); b < volBlocks; b++ {
		l.sendSeq(op{kind: opWrite, block: b}, 0)
	}
	l.drain()
}

// resetVolume is the rolling-backup schedule's answer to a pool that may
// not hold the next generation: delete the volume with its snapshots,
// create it anew and restamp every block. The restamp writes are
// measured ops. Snapshot deletes that free what they should keep the
// pool below that point for good (README.md, "Known defect").
func (r *rig) resetVolume(l *loop) error {
	freed, err := r.cl.VolDelete(volName, 0)
	if err != nil {
		return fmt.Errorf("delete volume: %w", err)
	}
	r.poolDrift += freed - r.pool.used
	r.resets++
	if err := r.cl.Unregister(r.ioHandle); err != nil {
		return fmt.Errorf("unregister: %w", err)
	}
	if err := r.openVol(); err != nil {
		return err
	}
	l.h = r.ioHandle
	r.pool.used = 0
	r.pool.snapshot()
	r.stampVol(l)
	return l.err
}

// poolModel follows vol_hot's extent pool from the client side: the
// first write to a logical extent in each generation allocates one
// extent (a fresh image or a CoW break), and a delete returns what the
// server says it freed. The benchmark resets the volume before the pool
// could run out, so that no write fails.
type poolModel struct {
	total   int    // extents in the pool
	used    int    // extents allocated
	touched []bool // logical extents written in the current generation
}

func (p *poolModel) write(block uint32) {
	if e := block / volExtBlocks; !p.touched[e] {
		p.touched[e] = true
		p.used++
	}
}

// snapshot starts a new generation: every extent's next write allocates.
func (p *poolModel) snapshot() { clear(p.touched) }

// fits reports whether a generation that writes every extent fits.
func (p *poolModel) fits() bool { return p.used+len(p.touched) <= p.total }

// lba is the wire LBA of a span block.
func lba(block uint32) uint32 { return block * sectorsPerBk }

// ---- closed loop with a fixed in-flight window (read_peak, vol_hot) ----

type slot struct {
	c     *client.Call
	o     op
	seq   uint64
	start time.Time
	buf   []byte
}

type loop struct {
	r       *rig
	h       uint16
	ring    []slot
	head, n int
	m       *meter // nil while setting up
	nextSeq uint64
	ops     int64 // ops sent in the measured phase
	err     error
}

func (r *rig) newLoop(h uint16, depth int, m *meter) *loop {
	l := &loop{r: r, h: h, ring: make([]slot, depth), m: m}
	for i := range l.ring {
		l.ring[i].buf = make([]byte, blockBytes)
	}
	return l
}

// send sends o once a window slot is free, giving writes a fresh
// sequence number.
func (l *loop) send(o op) {
	seq := uint64(0)
	if o.kind == opWrite {
		l.nextSeq++
		seq = l.nextSeq
	}
	l.sendSeq(o, seq)
}

func (l *loop) sendSeq(o op, seq uint64) {
	if l.n == len(l.ring) {
		l.reap()
	}
	if l.err != nil {
		return
	}
	s := &l.ring[(l.head+l.n)%len(l.ring)]
	s.o, s.seq = o, seq
	if o.kind == opWrite {
		stamp(s.buf, lba(o.block), seq)
		if l.r.pool.touched != nil {
			l.r.pool.write(o.block)
		}
	}
	var err error
	s.start = time.Now()
	if o.kind == opWrite {
		s.c, err = l.r.cl.GoWrite(l.h, lba(o.block), s.buf)
	} else {
		s.c, err = l.r.cl.GoRead(l.h, lba(o.block), blockBytes)
	}
	if l.r.traced {
		l.r.submitT.Add(int64(time.Since(s.start)))
		l.r.submitN.Add(1)
	}
	if err != nil {
		l.err = fmt.Errorf("submit: %w", err)
		return
	}
	if l.m != nil {
		l.m.attempted.Add(1)
		l.ops++
	}
	l.n++
}

// reap completes the oldest in-flight op and checks its outcome.
func (l *loop) reap() {
	s := &l.ring[l.head]
	l.head = (l.head + 1) % len(l.ring)
	l.n--
	<-s.c.Done
	now := time.Now()
	lat := now.Sub(s.start)
	err := s.c.Err
	ok := err == nil
	if ok && s.o.kind == opRead {
		seq, good := unstamp(s.c.Data, lba(s.o.block))
		if !good || seq != l.r.expect[s.o.block] {
			ok = false
			if l.m != nil {
				l.m.noteWrong(s.o.block, s.c.Data, fmt.Sprint(l.r.expect[s.o.block]))
			} else {
				l.err = fmt.Errorf("setup read of block %d returned wrong bytes", s.o.block)
			}
		}
	}
	if ok && s.o.kind == opWrite {
		l.r.expect[s.o.block] = s.seq
	}
	m := l.m
	if m == nil {
		if err != nil && l.err == nil {
			l.err = fmt.Errorf("setup op: %w", err)
		}
		return
	}
	m.opsAll.Add(1)
	if !ok {
		m.failed.Add(1)
		switch {
		case errors.Is(err, client.ErrNoCapacity):
			if m.nospace.Add(1) == 1 {
				l.r.nospaceAt = l.ops
			}
		case err != nil:
			m.otherErr.Add(1)
		}
		return
	}
	m.opsMain.Add(1)
	m.recordMain(now, lat)
	m.recordOp(s.o.kind == opWrite, lat)
}

func (l *loop) drain() {
	for l.n > 0 {
		l.reap()
	}
}

// ---- measured phases ----

// driveClosed runs read_peak or vol_hot until the meter's end.
func (r *rig) driveClosed(m *meter) error {
	depth := peakDepth
	var next func() op
	if r.wl == "read_peak" {
		g := &uniformGen{r: newRand(r.seed, 1), blocks: r.blocks}
		next = g.next
	} else {
		depth = volDepth
		g := newVolGen(r.seed, volBlocks, volZipfS, volWritePct, volSnapEvery, volDepth)
		next = g.next
	}
	l := r.newLoop(r.ioHandle, depth, m)
	var gens []uint64
	m.begin()
	for !m.over(time.Now()) && l.err == nil {
		o := next()
		if o.kind != opSnap {
			l.send(o)
			continue
		}
		// Rolling backup: quiesce, snapshot, keep the newest few.
		l.drain()
		t0 := time.Now()
		gen, err := r.cl.VolSnapshot(volName)
		if err != nil {
			l.err = fmt.Errorf("snapshot: %w", err)
			break
		}
		r.snapUs = append(r.snapUs, float64(time.Since(t0))/1e3)
		r.snaps++
		r.pool.snapshot()
		gens = append(gens, gen)
		for len(gens) > volKeepSnaps && l.err == nil {
			freed, err := r.cl.VolDelete(volName, gens[0])
			if err != nil {
				l.err = fmt.Errorf("delete snapshot: %w", err)
				break
			}
			r.freed += freed
			r.pool.used -= freed
			r.deletes++
			gens = gens[1:]
		}
		if l.err == nil && !r.pool.fits() {
			l.err = r.resetVolume(l)
			gens = gens[:0]
		}
	}
	l.drain()
	m.finish()
	return l.err
}

// drive runs the measured phase of the rig's workload.
func (r *rig) drive(m *meter) error {
	if r.wl == "qos_tenants" {
		return r.driveQoS(m)
	}
	return r.driveClosed(m)
}

// ---- runs ----

// runReal measures one real-path workload. Untraced, it sets up
// setupsPerRun times (setup_s is their median), keeps the last rig and
// measures for the full period. Traced, it measures half the period
// untraced and half traced, each on a fresh rig.
func runReal(p params) (*report, error) {
	rep := newReport()
	if p.trace {
		return rep, runTraced(p, rep)
	}
	var setups []float64
	var r *rig
	for i := 0; i < setupsPerRun; i++ {
		if r != nil {
			r.close()
			r = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if r, err = newRig(p.workload, p.seed, rigOpts{}); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	m := newMeter(p.seconds)
	if err := r.drive(m); err != nil {
		return nil, err
	}
	r.account(rep, m)
	rep.set("setup_s", median(setups))
	rep.set("mem_peak_mb", m.memPeakMB())
	rep.set("cpu_us_per_op", m.cpuPerOp())
	rep.set("ops_per_s", m.opsPerSec())
	rep.set("op_p50_us", m.p50())
	rep.set("op_p90_us", m.p90())
	rep.info["setup_s_each"] = setups
	rep.info["by_name"] = r.byName(rep, m)
	return rep, nil
}

// failFrac is failed ops over attempted ops.
func failFrac(m *meter) float64 {
	return ratio(float64(m.failed.Load()), float64(m.attempted.Load()))
}

// byName restates an untraced run's figures under the per-workload
// metric names README.md defines (fail_frac, iops, read_p99_us,
// lc_read_p99_us, be_iops, ...). The result line cannot carry them: it
// must give every workload the same metrics.
func (r *rig) byName(rep *report, m *meter) map[string]metric {
	out := map[string]metric{
		"fail_frac": {failFrac(m), "ratio"},
	}
	for _, k := range []string{"setup_s", "mem_peak_mb", "cpu_us_per_op"} {
		out[k] = rep.res.Metrics[k]
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	us := func(h *hist.Hist, q float64) metric { return metric{float64(h.Quantile(q)) / 1e3, "us"} }
	switch r.wl {
	case "qos_tenants":
		out["be_iops"] = rep.res.Metrics["ops_per_s"]
		out["lc_read_p50_us"] = metric{m.lat.quantile(0.50), "us"}
		out["lc_read_p99_us"] = metric{m.lat.quantile(0.99), "us"}
	default:
		out["iops"] = rep.res.Metrics["ops_per_s"]
		out["read_p50_us"] = us(&m.reads, 0.50)
		out["read_p99_us"] = us(&m.reads, 0.99)
		if r.wl == "vol_hot" {
			out["write_p99_us"] = us(&m.write, 0.99)
		}
	}
	return out
}

// account adds a measured pass's outcome to the report.
func (r *rig) account(rep *report, m *meter) {
	rep.res.Attempted += m.attempted.Load()
	rep.res.Failed += m.failed.Load()
	if m.wrong.Load() > 0 {
		rep.res.Correct = false
	}
	pass := "untraced"
	if r.traced {
		pass = "traced"
	}
	info := map[string]any{
		"attempted":       m.attempted.Load(),
		"failed":          m.failed.Load(),
		"wrong_bytes":     m.wrong.Load(),
		"nospace_writes":  m.nospace.Load(),
		"other_errors":    m.otherErr.Load(),
		"latency_samples": m.lat.samples(),
		"windows":         len(m.samples) - 1,
		"op_p99_us":       m.lat.quantile(0.99),
	}
	if len(m.wrongLog) > 0 {
		info["wrong_reads"] = m.wrongLog
	}
	if r.wl == "vol_hot" {
		info["snapshots"] = r.snaps
		info["snapshot_delete_freed_extents"] = r.freed
		info["volume_resets"] = r.resets
		info["pool_model_drift_extents"] = r.poolDrift
		info["first_nospace_op"] = r.nospaceAt
	}
	if r.wl == "qos_tenants" {
		info["gen_late_us"] = map[string]float64{
			"p50": float64(r.late.Quantile(0.5)) / 1e3,
			"p90": float64(r.late.Quantile(0.9)) / 1e3,
			"p99": float64(r.late.Quantile(0.99)) / 1e3,
		}
	}
	rep.info[pass] = info
}
