package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/hist"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/readcache"
	"github.com/reflex-go/reflex/internal/storage"
	"github.com/reflex-go/reflex/internal/volume"
)

// tracedBackend is the storage.Backend the traced pass hands the server:
// it counts and times every device access.
type tracedBackend struct {
	storage.Backend
	reads, writes   atomic.Int64
	readNs, writeNs atomic.Int64
	wroteBytes      atomic.Int64
}

func (b *tracedBackend) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := b.Backend.ReadAt(p, off)
	b.readNs.Add(int64(time.Since(t0)))
	b.reads.Add(1)
	return n, err
}

func (b *tracedBackend) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := b.Backend.WriteAt(p, off)
	b.writeNs.Add(int64(time.Since(t0)))
	b.writes.Add(1)
	b.wroteBytes.Add(int64(n))
	return n, err
}

// stage is one server pipeline segment between two span stamps.
type stage struct {
	name     string
	from, to obs.Stage
}

var stages = []stage{
	{"parse", obs.StageArrival, obs.StageParse},
	{"queue", obs.StageParse, obs.StageAdmit},
	{"submit", obs.StageAdmit, obs.StageSubmit},
	{"device", obs.StageSubmit, obs.StageDevDone},
	{"tx", obs.StageDevDone, obs.StageTx},
}

// spanPoller reads the server's span ring and core queue depth while a
// traced pass runs: every span pushed is picked up as long as fewer than
// the ring's capacity arrive between two polls.
type spanPoller struct {
	ring     *obs.Ring
	reg      *obs.Registry
	stageH   []hist.Hist
	serveH   hist.Hist // arrival→tx of reads
	seen     uint64
	missed   uint64
	polled   uint64
	queueMax float64
	stop     chan struct{}
	done     chan struct{}
}

const spanRingCap = 4096 // obs ring capacity the server allocates

func startPoller(r *rig) *spanPoller {
	p := &spanPoller{
		ring: r.srv.TraceRing(), reg: r.srv.Metrics(),
		stageH: make([]hist.Hist, len(stages)),
		stop:   make(chan struct{}), done: make(chan struct{}),
	}
	p.seen = p.ring.Count()
	go func() {
		defer close(p.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				p.poll()
				return
			case <-t.C:
				p.poll()
			}
		}
	}()
	return p
}

func (p *spanPoller) poll() {
	if q, ok := p.reg.LookupValue("srv_core_queue_depth", obs.L("core", "0")); ok && q > p.queueMax {
		p.queueMax = q
	}
	c := p.ring.Count()
	n := c - p.seen
	if n == 0 {
		return
	}
	if n > spanRingCap {
		p.missed += n - spanRingCap
		n = spanRingCap
	}
	p.seen = c
	for _, sp := range p.ring.Recent(int(n)) {
		p.polled++
		for i, st := range stages {
			a, b := sp.Stamps[st.from], sp.Stamps[st.to]
			if a > 0 && b >= a {
				p.stageH[i].Record(b - a)
			}
		}
		if !sp.Write && sp.Total() > 0 {
			p.serveH.Record(sp.Total())
		}
	}
}

func (p *spanPoller) finish() {
	close(p.stop)
	<-p.done
}

// counters reads the server registry's counters and histogram summaries
// by name, summing over labels.
type counters map[string]float64

func readCounters(reg *obs.Registry) (counters, map[string]*hist.Snapshot) {
	c := counters{}
	h := map[string]*hist.Snapshot{}
	for _, m := range reg.Snapshot().Metrics {
		key := m.Name
		if op := m.Labels["op"]; op != "" && m.Labels["path"] == "" {
			key += "/" + op
		}
		if m.Hist != nil {
			h[key] = m.Hist
			continue
		}
		c[key] += m.Value
	}
	return c, h
}

func (c counters) delta(prev counters, name string) float64 { return c[name] - prev[name] }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced measures the workload untraced, then traced, on fresh rigs.
func runTraced(p params, rep *report) error {
	rep.zeroLayers()
	half := p.seconds / 2
	ra, err := newRig(p.workload, p.seed, rigOpts{})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	ma := newMeter(half)
	err = ra.drive(ma)
	ra.close()
	if err != nil {
		return err
	}
	ra.account(rep, ma)
	allocs, gcFrac, heapPeak := ma.procLayer()
	untracedRate := ma.opsPerSec()
	runtime.GC()

	r, err := newRig(p.workload, p.seed, rigOpts{traced: true})
	if err != nil {
		return fmt.Errorf("setup traced: %w", err)
	}
	defer r.close()
	reg := r.srv.Metrics()
	c0, _ := readCounters(reg)
	tb0 := r.tb.snapshot()
	poller := startPoller(r)
	m := newMeter(half)
	err = r.drive(m)
	poller.finish()
	if err != nil {
		return err
	}
	c1, h1 := readCounters(reg)
	tb := r.tb.snapshot().minus(tb0)
	r.account(rep, m)

	m.mu.Lock()
	clientRead, clientWrite := m.reads.Snapshot(), m.write.Snapshot()
	m.mu.Unlock()
	reads := float64(clientRead.Count)
	writes := float64(clientWrite.Count)
	ops := reads + writes

	rep.set("client.submit_ns", ratio(float64(r.submitT.Load()), float64(r.submitN.Load())))
	rep.set("client.read_p50_us", float64(clientRead.P50)/1e3)
	rep.set("client.read_p99_us", float64(clientRead.P99)/1e3)
	rep.set("client.write_p99_us", float64(clientWrite.P99)/1e3)
	serverRead := poller.serveH.Snapshot()
	rep.set("client.outside_server_p50_us", float64(clientRead.P50-serverRead.P50)/1e3)

	var srvRead, srvWrite, schedBatch hist.Snapshot
	if s := h1["srv_request_latency_ns/read"]; s != nil {
		srvRead = *s
	}
	if s := h1["srv_request_latency_ns/write"]; s != nil {
		srvWrite = *s
	}
	if s := h1["srv_sched_batch"]; s != nil {
		schedBatch = *s
	}
	rep.set("server.read_p50_us", float64(srvRead.P50)/1e3)
	rep.set("server.read_p99_us", float64(srvRead.P99)/1e3)
	rep.set("server.write_p99_us", float64(srvWrite.P99)/1e3)
	responses := c1.delta(c0, "srv_responses_total")
	flushes := c1.delta(c0, "srv_core_flushes_total")
	rep.set("server.flushes_per_op", ratio(flushes, responses))
	rep.set("server.flush_batch_mean", ratio(c1.delta(c0, "srv_core_flush_msgs_total"), flushes))
	rep.set("server.sched_batch_mean", schedBatch.Mean)
	rep.set("server.queue_depth_max", poller.queueMax)
	var stageSum float64
	for i, st := range stages {
		s := poller.stageH[i].Snapshot()
		rep.set("server.stage."+st.name+"_p50_us", float64(s.P50)/1e3)
		rep.set("server.stage."+st.name+"_p99_us", float64(s.P99)/1e3)
		stageSum += float64(s.P50) / 1e3
	}

	hits := c1.delta(c0, "cache_hits_total")
	misses := c1.delta(c0, "cache_misses_total")
	rep.set("bufpool.miss_frac", ratio(c1.delta(c0, "bufpool_misses"),
		c1.delta(c0, "bufpool_misses")+c1.delta(c0, "bufpool_hits")))
	rep.set("ctrl.shed", c1.delta(c0, "requests_shed"))
	rep.set("readcache.hit_ratio", ratio(hits, hits+misses))
	rep.set("readcache.fill_abort_frac", ratio(c1.delta(c0, "cache_fill_aborts_total"), c1.delta(c0, "cache_admits_total")))
	rep.set("readcache.evictions_per_op", ratio(c1.delta(c0, "cache_evictions_total"), ops))
	rep.set("readcache.invalidations_per_write", ratio(c1.delta(c0, "cache_invalidations_total"), writes))

	// Tokens charged for completed ops: device reads at the read cost,
	// hits at the cache-service cost, writes at the write cost.
	charged := (reads-hits)*float64(model.ReadCost) + hits*float64(model.CacheServeCost()) +
		writes*float64(model.WriteCost)
	budget := float64(r.srv.Shared(0).TokenRate()) * m.end.Sub(m.start).Seconds()
	rep.set("core.token_util", ratio(charged, budget))

	rep.set("storage.read_ns", ratio(float64(tb.readNs), float64(tb.reads)))
	rep.set("storage.write_ns", ratio(float64(tb.writeNs), float64(tb.writes)))
	rep.set("storage.reads_per_read", ratio(float64(tb.reads), reads))

	var snapP50, snapMax, amp float64
	if p.workload == "vol_hot" {
		snapP50, snapMax = quantile(r.snapUs, 0.5), quantile(r.snapUs, 1)
		amp = ratio(float64(tb.wroteBytes), writes*blockBytes)
	}
	rep.set("volume.snapshot_p50_us", snapP50)
	rep.set("volume.snapshot_max_us", snapMax)
	rep.set("volume.device_bytes_per_user_byte", amp)
	rep.set("volume.freed_per_snap_delete", ratio(float64(r.freed), float64(r.deletes)))
	rep.set("volume.resets_per_snapshot", ratio(float64(r.resets), float64(r.snaps)))

	rep.set("proc.allocs_per_op", allocs)
	rep.set("proc.gc_cpu_frac", gcFrac)
	rep.set("proc.heap_peak_mb", heapPeak)
	rep.set("gen.late_p99_us", float64(r.late.Quantile(0.99))/1e3)
	if p.workload == "qos_tenants" {
		rep.set("gen.lc_read_p50_us", m.lat.quantile(0.50))
		rep.set("gen.lc_read_p99_us", m.lat.quantile(0.99))
	}
	rep.set("trace.overhead", ratio(m.opsPerSec(), untracedRate))
	clientP50 := float64(clientRead.P50) / 1e3
	layers := ratio(float64(r.submitT.Load()), float64(r.submitN.Load()))/1e3 + stageSum
	rep.set("trace.coverage", ratio(layers, clientP50))
	rep.info["spans"] = map[string]uint64{"polled": poller.polled, "missed": poller.missed}

	micro(rep, p)
	return nil
}

type backendCounts struct {
	reads, writes, readNs, writeNs, wroteBytes int64
}

func (b *tracedBackend) snapshot() backendCounts {
	return backendCounts{b.reads.Load(), b.writes.Load(), b.readNs.Load(), b.writeNs.Load(), b.wroteBytes.Load()}
}

func (a backendCounts) minus(b backendCounts) backendCounts {
	return backendCounts{a.reads - b.reads, a.writes - b.writes, a.readNs - b.readNs,
		a.writeNs - b.writeNs, a.wroteBytes - b.wroteBytes}
}

// ---- micro-timings of each layer's public functions on the workload's
// own inputs ----

// microOps is how many of the workload's ops each micro-timing replays.
const microOps = 200_000

// workloadOps returns the first n ops of the workload's measured stream.
func workloadOps(wl string, seed uint64, n int) []op {
	ops := make([]op, 0, n)
	switch wl {
	case "vol_hot":
		g := newVolGen(seed, volBlocks, volZipfS, volWritePct, volSnapEvery, volDepth)
		for len(ops) < n {
			if o := g.next(); o.kind != opSnap {
				ops = append(ops, o)
			}
		}
	case "qos_tenants":
		gens := make([]*beGen, qosBETenants)
		for i := range gens {
			gens[i] = newBEGen(seed, uint32(i), qosBETenants, qosBlocks, beReadPct(i))
		}
		for i := 0; len(ops) < n; i++ {
			ops = append(ops, gens[i%qosBETenants].next())
		}
	default:
		g := &uniformGen{r: newRand(seed, 1), blocks: peakBlocks}
		for len(ops) < n {
			ops = append(ops, g.next())
		}
	}
	return ops
}

// micro reports the per-layer micro-timings.
func micro(rep *report, p params) {
	ops := workloadOps(p.workload, p.seed, microOps)

	ns, allocs := protocolRoundtrip(ops)
	rep.set("protocol.roundtrip_ns", ns)
	rep.set("protocol.roundtrip_allocs", allocs)

	lc, be := 0, 1
	if p.workload == "qos_tenants" {
		lc, be = 1, qosBETenants
	}
	sched, enq, roundAllocs := schedulerRound(lc, be, ops)
	rep.set("core.schedule_ns", sched)
	rep.set("core.enqueue_ns", enq)
	rep.set("core.round_allocs", roundAllocs)

	cacheBlocks := peakCacheMiB << 20 / blockBytes
	switch p.workload {
	case "qos_tenants":
		cacheBlocks = qosCacheMiB << 20 / blockBytes
	case "vol_hot":
		cacheBlocks = volCacheMiB << 20 / blockBytes
	}
	rep.set("readcache.probe_ns", cacheProbe(cacheBlocks, ops))

	translate := 0.0
	if p.workload == "vol_hot" {
		translate = volumeTranslate(ops)
	}
	rep.set("volume.translate_ns", translate)
}

// protocolRoundtrip frames and parses the workload's read responses: one
// 4 KiB payload per op with its LBA, through pooled buffers.
func protocolRoundtrip(ops []op) (nsPerOp, allocsPerOp float64) {
	payload := make([]byte, blockBytes)
	arena := make([]byte, 0, protocol.HeaderSize+blockBytes)
	lease := bufpool.Get(blockBytes)
	defer lease.Release()
	var rd bytes.Reader
	var msg protocol.Message
	alloc := func(n int) []byte { lease.SetLen(n); return lease.Bytes() }
	i := 0
	one := func() {
		o := ops[i%len(ops)]
		i++
		hdr := protocol.Header{Opcode: protocol.OpRead, LBA: lba(o.block), Count: blockBytes}
		var err error
		if arena, err = protocol.AppendMessage(arena[:0], &hdr, payload); err != nil {
			panic(err)
		}
		rd.Reset(arena)
		if err := protocol.ReadMessageInto(&rd, &msg, alloc); err != nil {
			panic(err)
		}
	}
	one()
	allocsPerOp = testing.AllocsPerRun(1000, one)
	t0 := time.Now()
	for range ops {
		one()
	}
	return float64(time.Since(t0)) / float64(len(ops)), allocsPerOp
}

// schedulerRound times Enqueue and one Schedule round per op at the
// workload's registered-tenant count (lc latency-critical tenants at
// 1000 IOPS each, be best-effort tenants), spreading ops over tenants.
func schedulerRound(lc, be int, ops []op) (scheduleNs, enqueueNs, roundAllocs float64) {
	shared := core.NewSharedState(1, unlimitedRate*core.TokenUnit)
	s := core.NewScheduler(model, 0, shared)
	var tenants []*core.Tenant
	for i := 0; i < lc+be; i++ {
		class, slo := core.BestEffort, core.SLO{}
		if i < lc {
			class, slo = core.LatencyCritical, core.SLO{IOPS: 1000, ReadPercent: 100, LatencyP95: 1e6}
		}
		t, err := core.NewTenant(i, "", class, slo)
		if err != nil {
			panic(err)
		}
		s.Register(t)
		tenants = append(tenants, t)
	}
	reqs := make([]core.Request, len(ops))
	now := int64(0)
	submit := func(*core.Request) {}
	i := 0
	round := func() {
		o := ops[i%len(ops)]
		r := &reqs[i%len(reqs)]
		*r = core.Request{Op: core.OpRead, Size: blockBytes, Block: uint64(o.block)}
		if o.kind == opWrite {
			r.Op = core.OpWrite
		}
		s.Enqueue(tenants[i%len(tenants)], r)
		i++
		now += 10_000
		s.Schedule(now, submit)
	}
	for k := 0; k < 1000; k++ {
		round()
	}
	roundAllocs = testing.AllocsPerRun(1000, round)
	var enq, sched time.Duration
	for k := range ops {
		o := ops[k]
		r := &reqs[k]
		*r = core.Request{Op: core.OpRead, Size: blockBytes, Block: uint64(o.block)}
		t0 := time.Now()
		s.Enqueue(tenants[k%len(tenants)], r)
		t1 := time.Now()
		now += 10_000
		s.Schedule(now, submit)
		enq += t1.Sub(t0)
		sched += time.Since(t1)
	}
	n := float64(len(ops))
	return float64(sched) / n, float64(enq) / n, roundAllocs
}

// cacheProbe replays the workload's key stream through a cache sized like
// the workload's: reads probe (and fill when admitted), writes invalidate.
func cacheProbe(blocks int, ops []op) float64 {
	c, err := readcache.New(readcache.Config{Blocks: blocks, ReadCost: model.ReadCost, HitCost: model.CacheServeCost()})
	if err != nil {
		panic(err)
	}
	dst := make([]byte, blockBytes)
	var probe time.Duration
	var n int
	for _, o := range ops {
		key := readcache.Key(0, uint64(o.block))
		if o.kind == opWrite {
			c.Invalidate(key, 1)
			continue
		}
		t0 := time.Now()
		hit, admit, epoch := c.Probe(key, 0, dst)
		probe += time.Since(t0)
		n++
		if !hit && admit {
			c.CommitFill(key, epoch, dst)
		}
	}
	return ratio(float64(probe), float64(n))
}

// volumeTranslate times Volume.Translate over the workload's blocks on a
// fully written volume of vol_hot's size and extent layout.
func volumeTranslate(ops []op) float64 {
	pool := uint64(volPoolFactor * volBlocks * sectorsPerBk)
	mgr, err := volume.NewManager(volume.Config{
		Backend: storage.NewMem(int64(pool) * 512), FirstBlock: 0, Blocks: pool,
	})
	if err != nil {
		panic(err)
	}
	v, err := mgr.Create(volName, volBlocks*sectorsPerBk)
	if err != nil {
		panic(err)
	}
	buf := make([]byte, blockBytes)
	for b := uint32(0); b < volBlocks; b++ {
		if err := v.WriteAt(buf, int64(b)*blockBytes); err != nil {
			panic(err)
		}
	}
	var sink int64
	t0 := time.Now()
	for _, o := range ops {
		off, _ := v.Translate(int64(o.block)*blockBytes, blockBytes)
		sink += off
	}
	d := time.Since(t0)
	runtime.KeepAlive(sink)
	return float64(d) / float64(len(ops))
}

// quantile returns the q-quantile of xs by nearest rank (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}
