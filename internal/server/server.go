// Package server implements a real TCP/UDP ReFlex server: the
// production-path counterpart of the simulated dataplane. It speaks the
// internal/protocol wire format, enforces per-tenant ACLs (§4.1 "Security
// model"), supports ordering barriers, and runs the same QoS scheduler as
// the simulator (internal/core) on a set of shared-nothing per-core event
// loops, one tenant per core (§4.1). A server may front several devices;
// each device gets an independent scheduler instance with its own token
// accounting (§3.2.2).
//
// Dataplane structure (DESIGN.md §15): connections are pinned to a core
// at accept time and tenants registered over a connection land on its
// core, so a request's whole lifecycle — decode, QoS scheduling, device
// I/O, response flush — runs against one core's private state. The only
// cross-core structures on the request path are atomics: the global token
// bucket (core.SharedState), the handle-indexed tenant registry, the live
// connection counter, and the per-core debt gauges feeding the shed
// signal. No mutex is shared between cores per request.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/cluster"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/ctrl"
	"github.com/reflex-go/reflex/internal/faults"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/readcache"
	"github.com/reflex-go/reflex/internal/storage"
	"github.com/reflex-go/reflex/internal/volume"
)

// DeviceConfig describes one flash device behind the server.
type DeviceConfig struct {
	// Backend stores the device's bytes.
	Backend storage.Backend
	// Model is the device's calibrated cost model.
	Model core.CostModel
	// TokenRate is the token generation rate (mt/s) at the strictest
	// latency SLO this device accepts.
	TokenRate core.Tokens
	// ReadOnlyWindow is how long after the last write the cost model
	// treats the device as read-only (0 disables the discount).
	ReadOnlyWindow time.Duration
}

func (d *DeviceConfig) validate(i int) error {
	if d.Backend == nil {
		return fmt.Errorf("server: device %d: nil backend", i)
	}
	if d.TokenRate <= 0 {
		return fmt.Errorf("server: device %d: TokenRate must be positive", i)
	}
	if err := d.Model.Validate(); err != nil {
		return fmt.Errorf("server: device %d: %w", i, err)
	}
	return nil
}

// Config configures a server.
type Config struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// UDPAddr optionally enables the datagram endpoint on this address.
	UDPAddr string
	// Cores is the number of shared-nothing per-core event loops (1..64).
	// Each core owns a request ring, one scheduler per device, and the
	// batched response flusher for the connections pinned to it.
	Cores int
	// RingSize is the per-core request ring capacity (default 4096). The
	// default shed high watermark derives from it, so resizing the ring
	// moves the backpressure-to-refusal crossover with it.
	RingSize int
	// ReadLatency/WriteLatency optionally delay the device operation to
	// emulate flash on fast in-memory backends (useful in examples,
	// demos, and the barrier tests).
	ReadLatency  time.Duration
	WriteLatency time.Duration

	// Model, TokenRate and ReadOnlyWindow describe device 0 when the
	// single-device New constructor is used.
	Model          core.CostModel
	TokenRate      core.Tokens
	ReadOnlyWindow time.Duration

	// IdleTimeout reaps TCP connections with no inbound traffic: the
	// reader's deadline is re-armed before every message, so a half-open
	// peer can no longer leak a goroutine and its tenant registrations
	// forever. 0 selects the 2-minute default; negative disables reaping.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write; a peer that stops reading
	// tears the connection down instead of wedging a core's flusher.
	// 0 selects the 10-second default; negative disables the deadline.
	WriteTimeout time.Duration

	// Faults optionally injects faults on the real path: accepted
	// connections are wrapped (drops/stalls/partial I/O/resets/jitter)
	// and the device path injects per-request I/O errors and timeout
	// pulses. Injections surface as the faults_injected metric.
	Faults *faults.Injector

	// Shed configures graceful load shedding: when the scheduler backlog,
	// aggregate token debt or connection count crosses its limit, new
	// best-effort I/O is refused with StatusOverloaded. Latency-critical
	// tenants are never shed. Zero-valued fields pick defaults (queue
	// high watermark at 3/4 of the per-core ring capacity).
	Shed ctrl.ShedConfig

	// CacheBytes enables the tiered DRAM read cache (internal/readcache,
	// DESIGN.md §17) in front of every device: capacity in bytes, rounded
	// down to 4KB blocks. Hits are served from DRAM on the pcore, charged
	// the cache-service cost instead of a device read; every write path
	// (client, replication, migration) invalidates through the backend
	// wrapper before the write is acknowledged. 0 disables the cache.
	CacheBytes int64
	// CacheAdmit selects the cache admission policy: "cost" (default —
	// admit a block only when its observed re-reference traffic, priced
	// by the device cost model, pays for the fill), "always", or "never".
	CacheAdmit string

	// VolumeBytes reserves this many bytes at the top of device 0 as the
	// logical-volume extent pool (internal/volume, DESIGN.md §18),
	// enabling the OpVol* opcodes: thin-provisioned volumes, CoW
	// snapshots, clones and snapshot-diff streams. 0 disables volumes.
	// The pool range is carved out of the device; raw-LBA tenants should
	// be ACL-bounded below it.
	VolumeBytes int64
	// VolumeExtentBlocks sets the extent size in 512B blocks (default
	// volume.DefaultExtentBlocks = 128 → 64 KiB extents). Must be a
	// multiple of 8 so extents stay 4KiB-aligned for the read cache.
	VolumeExtentBlocks int

	// NodeName identifies this server (pair) in a sharded cluster's shard
	// map (DESIGN.md §13). Empty disables shard enforcement entirely: the
	// server serves its whole device like a pre-sharding node even if a
	// map is installed.
	NodeName string

	// Epoch seeds the cluster epoch (0 = standalone; see internal/cluster
	// and DESIGN.md §11).
	Epoch uint16
	// BackupRole starts the server as a replication backup: it refuses
	// client writes (StatusStaleEpoch), applies the primary's replication
	// stream to device 0, and serves client reads (the hedged-read
	// target) until promoted.
	BackupRole bool
}

// Default failure-hardening parameters.
const (
	// DefaultIdleTimeout reaps connections idle longer than this.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultWriteTimeout bounds one response write.
	DefaultWriteTimeout = 10 * time.Second
)

// DefaultRingSize is the per-core request ring capacity when
// Config.RingSize is zero.
const DefaultRingSize = 4096

// schedInterval bounds the time between scheduling rounds: a core with
// queued requests but no arrivals still runs a round this often, so
// token accrual releases them.
const schedInterval = 200 * time.Microsecond

func (c *Config) fill() error {
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.Cores > 64 {
		return fmt.Errorf("server: at most 64 cores")
	}
	if c.RingSize <= 0 {
		c.RingSize = DefaultRingSize
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.Shed.QueueHigh == 0 {
		// The shed high watermark sits at 3/4 of the actual per-core ring
		// capacity (not a fixed constant) so backpressure turns into
		// explicit refusal before readers block — and keeps doing so when
		// the ring is resized.
		c.Shed.QueueHigh = 3 * c.RingSize / 4
	}
	return nil
}

// sdevice is one device's runtime state.
type sdevice struct {
	idx     int
	backend storage.Backend
	cfg     DeviceConfig
	shared  *core.SharedState
	// lcReserved is guarded by Server.regMu (registration slow path only;
	// never touched per request).
	lcReserved core.Tokens
	lastWrite  atomic.Int64
}

// Server is a running ReFlex server.
type Server struct {
	cfg     Config
	devices []*sdevice
	ln      net.Listener
	udp     *net.UDPConn
	cores   []*pcore
	start   time.Time
	// m is the unified telemetry layer (internal/obs): wall-clock metrics
	// registry plus the per-request span trace ring.
	m *metrics
	// shed is the graceful load-shed signal consulted on every
	// best-effort I/O.
	shed *ctrl.Shedder
	// cache is the tiered DRAM read cache (nil when disabled). Probed at
	// dispatch, filled on aligned 4KB read completions, invalidated by
	// the cachedBackend wrapper around every device backend.
	cache *readcache.Cache
	// vols is the logical-volume manager (nil when Config.VolumeBytes is
	// zero). Built over device 0's *wrapped* backend so every volume
	// write — in-place or CoW — invalidates the read cache at its
	// physical blocks before the ack, which is what makes physical cache
	// keys safe across CoW remaps.
	vols *volume.Manager

	// Cluster robustness state (internal/cluster; DESIGN.md §11). cmu
	// serializes epoch transitions (promote/fence) so role and epoch move
	// together; reads go through the atomics.
	cmu        sync.Mutex
	epoch      atomic.Uint32 // current cluster epoch (uint16 range)
	fenced     atomic.Bool   // deposed primary: writes refused
	backupRole atomic.Bool   // replication backup: client writes refused
	onPromote  atomic.Value  // func(uint16)
	repl       *cluster.Replicator
	// migr is the migration-source replicator: a second forward stream,
	// attached by a ranged OpJoin, that carries one shard's catch-up and
	// live writes to a migration sink during a live shard move
	// (DESIGN.md §13). Independent of repl so a node can host a backup
	// session and a migration session at once.
	migr *cluster.Replicator
	// shardMap holds the installed *shard.Map (nil until one arrives over
	// OpShardMap). Immutable once stored; installs swap the pointer.
	shardMap atomic.Value

	// tenants is the atomics-only tenant registry: lookup on the request
	// path is one atomic load (see registry.go).
	tenants *tenantTable
	// regMu serializes registration admission (per-device lcReserved
	// accounting). Registration and unregistration only — the I/O path
	// never takes it.
	regMu sync.Mutex

	// connMu guards the connection set used by accept, teardown and
	// Close. The request path reads only connCount (the shed signal's
	// connection indicator), never the map.
	connMu    sync.Mutex
	conns     map[*srvConn]struct{}
	connCount atomic.Int64

	// Tenant-unregistration reaper: connection teardown funnels its owned
	// handles through one server-lifetime goroutine instead of spawning a
	// goroutine per torn-down connection. The queue is an unbounded slice
	// (teardown must never block a core's flusher) with a cap-1 kick
	// channel.
	unregMu   sync.Mutex
	unregPend []uint16
	unregKick chan struct{}

	wg        sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once
}

// stenant couples a scheduler tenant with its wire registration (the ACL),
// core binding, and barrier sequencer state.
type stenant struct {
	t      *core.Tenant
	reg    protocol.Registration
	coreID int
	device int
	rate   core.Tokens
	// vol binds the tenant to a logical volume (Registration.Volume != 0):
	// its OpRead/OpWrite/OpTrim LBAs are volume-logical and the pcore
	// routes its I/O through the extent map instead of raw device offsets.
	// Immutable after registration — the hot path reads it without locks.
	vol *volume.Volume

	mu          sync.Mutex
	outstanding int
	seq         []seqItem
	// dead marks a tenant torn down (unregistered or its connection
	// reaped); the sequencer drops held work instead of leaking waiters.
	dead bool
}

// enqueued is a request handed from a connection reader to its core's
// request ring.
type enqueued struct {
	ten *stenant
	req *core.Request
}

// reqCtx travels through the scheduler as core.Request.Context.
type reqCtx struct {
	conn    responder
	ten     *stenant
	hdr     protocol.Header
	payload []byte
	// lease backs payload when the request arrived in a pooled buffer
	// (write payloads that outlive dispatch). The completion path — or
	// any path that drops the request — releases it exactly once via
	// releaseLease.
	lease *bufpool.Buf
	// span is the request's lifecycle record; stamped along the pipeline
	// and pushed into the trace ring when the response is sent.
	span obs.Span
	// cbuf carries a read-cache hit's response payload (copied out of the
	// cache at dispatch, under the segment lock). The pcore serves it
	// without touching the backend; drop paths release it via
	// releaseLease like the write lease.
	cbuf *bufpool.Buf
	// fill marks an admitted read miss: on a successful aligned-4KB
	// backend read the pcore commits the block under fillKey unless the
	// fence epoch moved (a write invalidated the range in flight).
	fill      bool
	fillKey   uint64
	fillEpoch uint64
}

// releaseLease drops the request-payload lease and any cache-hit payload
// (idempotent: pointers are cleared so drop paths and the completion path
// cannot double-release).
func (ctx *reqCtx) releaseLease() {
	if ctx.lease != nil {
		ctx.lease.Release()
		ctx.lease = nil
	}
	if ctx.cbuf != nil {
		ctx.cbuf.Release()
		ctx.cbuf = nil
	}
}

// New starts a single-device server listening on cfg.Addr over backend,
// with the device described by cfg.Model/TokenRate/ReadOnlyWindow.
func New(cfg Config, backend storage.Backend) (*Server, error) {
	return NewMulti(cfg, []DeviceConfig{{
		Backend:        backend,
		Model:          cfg.Model,
		TokenRate:      cfg.TokenRate,
		ReadOnlyWindow: cfg.ReadOnlyWindow,
	}})
}

// NewMulti starts a server fronting several devices. Registration selects
// a device by index; each device runs an independent scheduler instance
// per core with its own token rate (§3.2.2).
func NewMulti(cfg Config, devices []DeviceConfig) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(devices) == 0 || len(devices) > 256 {
		return nil, fmt.Errorf("server: need 1..256 devices, have %d", len(devices))
	}
	for i := range devices {
		if err := devices[i].validate(i); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		ln:        ln,
		start:     time.Now(),
		tenants:   &tenantTable{},
		conns:     make(map[*srvConn]struct{}),
		unregKick: make(chan struct{}, 1),
		done:      make(chan struct{}),
		shed:      ctrl.NewShedder(cfg.Shed),
	}
	s.epoch.Store(uint32(cfg.Epoch))
	s.backupRole.Store(cfg.BackupRole)
	for i, dc := range devices {
		s.devices = append(s.devices, &sdevice{
			idx:     i,
			backend: dc.Backend,
			cfg:     dc,
			shared:  core.NewSharedState(cfg.Cores, dc.TokenRate),
		})
	}
	if cfg.CacheBytes >= readcache.BlockSize {
		mode, err := readcache.ParseMode(cfg.CacheAdmit)
		if err != nil {
			ln.Close()
			return nil, err
		}
		// Admission prices hits by device 0's model (multi-device servers
		// share one cache; per-device pricing only shifts the hurdle).
		model := s.devices[0].cfg.Model
		s.cache, err = readcache.New(readcache.Config{
			Blocks:   int(cfg.CacheBytes / readcache.BlockSize),
			Mode:     mode,
			ReadCost: model.ReadCost,
			HitCost:  model.CacheServeCost(),
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
		// Wrap every backend so each write — client dispatch, replication
		// apply, migration apply — invalidates before it is acknowledged.
		// Wrapping precedes the replicator construction below on purpose:
		// the replicators capture the wrapped backend.
		for _, d := range s.devices {
			d.backend = &cachedBackend{Backend: d.backend, cache: s.cache, dev: d.idx}
		}
	}
	if cfg.VolumeBytes > 0 {
		devBytes := s.devices[0].backend.Size()
		if cfg.VolumeBytes > devBytes {
			ln.Close()
			return nil, fmt.Errorf("server: volume pool %d bytes exceeds device 0 (%d)", cfg.VolumeBytes, devBytes)
		}
		poolBlocks := uint64(cfg.VolumeBytes) / protocol.BlockSize
		// Built after the cache wrap above so volume writes invalidate
		// physically; the pool sits at the top of device 0.
		mgr, err := volume.NewManager(volume.Config{
			Backend:      s.devices[0].backend,
			FirstBlock:   uint64(devBytes)/protocol.BlockSize - poolBlocks,
			Blocks:       poolBlocks,
			ExtentBlocks: uint32(cfg.VolumeExtentBlocks),
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
		s.vols = mgr
	}
	for i := 0; i < cfg.Cores; i++ {
		pc := &pcore{
			id:        i,
			srv:       s,
			ring:      make(chan enqueued, cfg.RingSize),
			cmdCh:     make(chan func(), 64),
			flushKick: make(chan struct{}, 1),
		}
		for _, d := range s.devices {
			d := d
			sched := core.NewScheduler(d.cfg.Model, i, d.shared)
			sched.ReadOnlyProbe = func() bool { return s.readOnlyProbe(d) }
			pc.scheds = append(pc.scheds, sched)
		}
		s.cores = append(s.cores, pc)
	}
	// Telemetry wires gauge functions over cores and devices, so it is
	// built after both exist and before any goroutine can serve a request.
	s.m = newMetrics(s)
	// The primary-side replicator is always present (a standalone server's
	// replicator simply never attaches a backup): forwards cover device 0.
	s.repl = cluster.NewReplicator(cluster.ReplicatorConfig{
		Backend:   s.devices[0].backend,
		Epoch:     s.ClusterEpoch,
		OnStale:   func(e uint16) { s.Fence(e) },
		OnForward: func() { s.m.replForwarded.Inc() },
		OnAck:     func() { s.m.replAcked.Inc() },
	})
	// Migration-source replicator (DESIGN.md §13): sends one shard's
	// catch-up and live writes to a ranged-join sink. The sink relays
	// chunks to the destination as ordinary OpWrites, so chunks stay well
	// under MaxPayload. A stale ack from the sink must NOT fence this
	// node — migration failure is the coordinator's problem, not a
	// deposition — hence no OnStale.
	s.migr = cluster.NewReplicator(cluster.ReplicatorConfig{
		Backend:    s.devices[0].backend,
		Epoch:      s.ClusterEpoch,
		OnForward:  func() { s.m.migrForwarded.Inc() },
		OnAck:      func() { s.m.migrAcked.Inc() },
		ChunkBytes: 128 << 10,
	})
	for _, pc := range s.cores {
		s.wg.Add(2)
		go pc.loop()
		go pc.flushLoop()
	}
	s.wg.Add(1)
	go s.reaperLoop()
	if cfg.UDPAddr != "" {
		ua, err := net.ResolveUDPAddr("udp", cfg.UDPAddr)
		if err != nil {
			ln.Close()
			return nil, err
		}
		pc, err := net.ListenUDP("udp", ua)
		if err != nil {
			ln.Close()
			return nil, err
		}
		s.udp = pc
		s.wg.Add(1)
		go s.serveUDP(pc)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound TCP listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// UDPAddr returns the bound UDP address, or "" when UDP is disabled.
func (s *Server) UDPAddr() string {
	if s.udp == nil {
		return ""
	}
	return s.udp.LocalAddr().String()
}

// Devices returns the number of devices this server fronts.
func (s *Server) Devices() int { return len(s.devices) }

// Cores returns the number of per-core event loops.
func (s *Server) Cores() int { return len(s.cores) }

// Shared exposes a device's scheduler shared state (tests and stats).
func (s *Server) Shared(device int) *core.SharedState {
	return s.devices[device].shared
}

// now returns monotonic nanoseconds since server start.
func (s *Server) now() int64 { return int64(time.Since(s.start)) }

func (s *Server) readOnlyProbe(d *sdevice) bool {
	if d.cfg.ReadOnlyWindow <= 0 {
		return false
	}
	last := d.lastWrite.Load()
	return last == 0 || s.now()-last > int64(d.cfg.ReadOnlyWindow)
}

// Close shuts the server down: stops accepting, closes connections, stops
// the core loops, and waits for all goroutines.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.done)
		s.ln.Close()
		if s.udp != nil {
			s.udp.Close()
		}
		s.connMu.Lock()
		for c := range s.conns {
			c.c.Close()
		}
		s.connMu.Unlock()
	})
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		// Chaos mode: wrap the accepted connection so the server's own
		// hardening (deadlines, reaping, flush-failure teardown) is
		// exercised by injected drops, stalls, partial I/O and resets.
		c = faults.WrapConn(c, s.cfg.Faults)
		newSrvConn(s, c)
	}
}

// queueUnregister hands a torn-down connection's owned tenant handles to
// the reaper goroutine. Never blocks (teardown may run on a core's
// flusher).
func (s *Server) queueUnregister(handles []uint16) {
	if len(handles) == 0 {
		return
	}
	s.unregMu.Lock()
	s.unregPend = append(s.unregPend, handles...)
	s.unregMu.Unlock()
	select {
	case s.unregKick <- struct{}{}:
	default:
	}
}

// reaperLoop is the single server-lifetime goroutine that unregisters
// tenants owned by torn-down connections (replacing the old
// goroutine-per-teardown pattern). Unregistration round-trips through
// per-core command channels, which select on server shutdown, so the
// reaper can never wedge past Close.
func (s *Server) reaperLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.unregKick:
		}
		for {
			s.unregMu.Lock()
			batch := s.unregPend
			s.unregPend = nil
			s.unregMu.Unlock()
			if len(batch) == 0 {
				break
			}
			for _, h := range batch {
				if s.unregisterTenant(h) == protocol.StatusOK {
					s.m.removed.Inc()
				}
			}
		}
	}
}

// shedNow reports whether a best-effort request for ten should be refused
// right now. Latency-critical tenants are never shed: their SLO was
// admitted against reserved capacity. The overload indicators are the
// tenant core's ring backlog, the aggregate scheduler token debt
// (published by the cores after each round), and the live connection
// count — all read through atomics; the shed decision takes no lock.
func (s *Server) shedNow(ten *stenant) bool {
	if ten.t.Class != core.BestEffort {
		return false
	}
	var debt core.Tokens
	for _, pc := range s.cores {
		debt += core.Tokens(pc.debt.Load())
	}
	conns := int(s.connCount.Load())
	return s.shed.Observe(len(s.cores[ten.coreID].ring), conns, debt)
}

// pinCore resolves a registration's core: a pinned index (the accepting
// connection's core) when valid, else the core with the fewest tenants.
// Pinning a tenant to its connection's core is what keeps a tenant's
// whole request path on one core — the connection reader, the scheduler
// that admits its I/O, and the flusher that writes its responses never
// cross a core boundary.
func (s *Server) pinCore(pin int) *pcore {
	if pin >= 0 && pin < len(s.cores) {
		return s.cores[pin]
	}
	best := s.cores[0]
	for _, pc := range s.cores[1:] {
		if pc.ntenants.Load() < best.ntenants.Load() {
			best = pc
		}
	}
	return best
}

// registerTenant performs admission control and registration. pin is the
// accepting connection's core (or -1 for coreless transports, which fall
// back to least-loaded placement).
func (s *Server) registerTenant(reg protocol.Registration, pin int) (uint16, protocol.Status) {
	if int(reg.Device) >= len(s.devices) {
		return 0, protocol.StatusBadRequest
	}
	dev := s.devices[reg.Device]

	class := core.LatencyCritical
	slo := core.SLO{
		IOPS:        int(reg.IOPS),
		ReadPercent: int(reg.ReadPercent),
		LatencyP95:  int64(reg.LatencyP95),
	}
	if reg.BestEffort {
		class = core.BestEffort
		slo = core.SLO{}
	}
	if class == core.LatencyCritical && slo.Validate() != nil {
		return 0, protocol.StatusBadRequest
	}
	// A volume-bound tenant addresses volume-logical LBAs: resolve the
	// volume handle now (one pointer on the stenant; the hot path never
	// looks it up again) and check the ACL range against the volume's
	// logical size instead of the raw device.
	var vol *volume.Volume
	if reg.Volume != 0 {
		if s.vols == nil || reg.Device != 0 {
			return 0, protocol.StatusBadRequest
		}
		v, ok := s.vols.ByHandle(uint16(reg.Volume))
		if !ok {
			return 0, protocol.StatusBadRequest
		}
		vol = v
	}
	if reg.LBACount != 0 {
		limit := dev.backend.Size()
		if vol != nil {
			limit = vol.LogicalBytes()
		}
		end := int64(reg.FirstLBA) + int64(reg.LBACount)
		if end*protocol.BlockSize > limit {
			return 0, protocol.StatusBadRequest
		}
	}

	// Admission: reserve the LC rate under the registration mutex — the
	// only lock in registration, never taken on the I/O path.
	var rate core.Tokens
	if class == core.LatencyCritical {
		rate = dev.cfg.Model.RateForSLO(slo.IOPS, slo.ReadPercent)
		s.regMu.Lock()
		if dev.lcReserved+rate > dev.cfg.TokenRate {
			s.regMu.Unlock()
			// Table 1: "Registered tenant, or out of resources error".
			return 0, protocol.StatusNoCapacity
		}
		dev.lcReserved += rate
		s.regMu.Unlock()
	}

	h, ok := s.tenants.claim()
	if !ok {
		s.returnReserved(dev, rate)
		return 0, protocol.StatusNoCapacity // all 65535 handles live
	}
	t, err := core.NewTenant(int(h), fmt.Sprintf("tenant-%d", h), class, slo)
	if err != nil {
		s.tenants.unclaim(h)
		s.returnReserved(dev, rate)
		return 0, protocol.StatusBadRequest
	}

	pc := s.pinCore(pin)
	st := &stenant{t: t, reg: reg, coreID: pc.id, device: int(reg.Device), rate: rate, vol: vol}
	s.tenants.publish(h, st)
	pc.ntenants.Add(1)
	pc.do(func() { pc.scheds[st.device].Register(t) })
	return h, protocol.StatusOK
}

// returnReserved undoes a registration's LC rate reservation.
func (s *Server) returnReserved(dev *sdevice, rate core.Tokens) {
	if rate == 0 {
		return
	}
	s.regMu.Lock()
	dev.lcReserved -= rate
	s.regMu.Unlock()
}

func (s *Server) unregisterTenant(h uint16) protocol.Status {
	st := s.tenants.remove(h)
	if st == nil {
		return protocol.StatusNoTenant
	}
	s.returnReserved(s.devices[st.device], st.rate)
	// Drop the sequencer's held work so no barrier waiter outlives the
	// tenant, then return the tenant's unspent token reservation to the
	// scheduler (Unregister releases the LC rate / BE share).
	st.kill()
	pc := s.cores[st.coreID]
	pc.ntenants.Add(-1)
	pc.do(func() { pc.scheds[st.device].Unregister(st.t) })
	return protocol.StatusOK
}

// lookup returns the tenant for a handle: one atomic load, no lock.
func (s *Server) lookup(h uint16) (*stenant, bool) {
	return s.tenants.lookup(h)
}

// checkACL validates an I/O against the tenant's namespace permissions.
// hdr.Count must already be normalized to the I/O length. For
// volume-bound tenants backendSize is the volume's logical size. OpTrim
// carries no payload, so its Count (the discard length in bytes) is
// exempt from the MaxPayload bound.
func checkACL(reg *protocol.Registration, hdr *protocol.Header, backendSize int64) protocol.Status {
	if hdr.Count == 0 || (hdr.Count > protocol.MaxPayload && hdr.Opcode != protocol.OpTrim) {
		return protocol.StatusBadRequest
	}
	if hdr.Opcode == protocol.OpWrite && hdr.Count != hdr.Len {
		return protocol.StatusBadRequest
	}
	off := int64(hdr.LBA) * protocol.BlockSize
	end := off + int64(hdr.Count)
	if end > backendSize {
		return protocol.StatusBadRequest
	}
	if (hdr.Opcode == protocol.OpWrite || hdr.Opcode == protocol.OpTrim) && !reg.Writable {
		return protocol.StatusDenied
	}
	if reg.LBACount != 0 {
		first := int64(reg.FirstLBA) * protocol.BlockSize
		limit := first + int64(reg.LBACount)*protocol.BlockSize
		if off < first || end > limit {
			return protocol.StatusDenied
		}
	}
	return protocol.StatusOK
}
