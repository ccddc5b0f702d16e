// Package dataplane simulates the ReFlex server (§3.1, §4.1): per-core
// threads with exclusive network and NVMe queue pairs, a two-step
// run-to-completion execution model (packet reception to Flash submission,
// Flash completion to reply transmission), adaptive batching capped at 64,
// and the shared QoS scheduler from internal/core invoked on every pass.
//
// Each thread's CPU is a serial resource in virtual time; per-request
// processing costs are charged on it, so per-core IOPS ceilings, queueing
// under load and batching behaviour all emerge from the cost parameters
// rather than being asserted.
package dataplane

import (
	"fmt"

	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/ctrl"
	"github.com/reflex-go/reflex/internal/flashsim"
	"github.com/reflex-go/reflex/internal/netsim"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/readcache"
	"github.com/reflex-go/reflex/internal/sim"
)

// Wire sizes of the ReFlex binary protocol (internal/protocol implements
// the real encoding; the simulator only needs the sizes).
const (
	ReqHeaderBytes  = 24
	RespHeaderBytes = 24
)

// Config holds the dataplane cost parameters. All per-request costs are for
// a 4KB request on an otherwise idle cache-warm core.
type Config struct {
	// Threads is the number of dataplane cores.
	Threads int

	// RxCost covers packet reception, protocol parsing and access control.
	RxCost sim.Time
	// SchedFixed is the fixed cost of one QoS scheduling round.
	SchedFixed sim.Time
	// SchedPerReq is the scheduling cost per admitted request.
	SchedPerReq sim.Time
	// SchedPerTenant is the per-round cost of visiting one registered
	// tenant (token generation, queue checks). It is what limits a core
	// to a few thousand tenants (Fig. 6b).
	SchedPerTenant sim.Time
	// SubmitCost covers NVMe command submission.
	SubmitCost sim.Time
	// CqeCost covers NVMe completion processing.
	CqeCost sim.Time
	// TxCost covers response transmission through the TCP stack.
	TxCost sim.Time

	// MaxBatch caps adaptive batching (§3.1: 64).
	MaxBatch int
	// SchedTick bounds the time between scheduling rounds when requests
	// wait for tokens ("does not exceed 5% of the strictest SLO").
	SchedTick sim.Time

	// ConnBase is the per-thread connection count that fits the last-level
	// cache; beyond it, per-request CPU cost inflates (Fig. 6c).
	ConnBase int
	// ConnFactor is the fractional CPU inflation per 1000 connections
	// above ConnBase.
	ConnFactor float64

	// TokenRate is the device's total token generation rate (mt/s) at the
	// strictest latency SLO; the control plane computes it (§4.3).
	TokenRate core.Tokens

	// CacheBlocks enables a DRAM read cache of this many 4KB blocks
	// (0 = no cache). The simulator caches presence only (readcache
	// NoData mode): a hit skips the device and is charged the cost
	// model's CacheServeCost instead of a device read, which is the
	// token-accounting effect the ext-cache experiment measures.
	CacheBlocks int
	// CacheAdmit selects the cache admission policy: "cost" (default,
	// the cost-model re-reference hurdle) or "always".
	CacheAdmit string
	// CacheHitService is the simulated DRAM+copy service time of a hit
	// (it replaces the device access entirely). 0 with CacheBlocks > 0
	// defaults to 2µs — a hit must cost some time, or the simulation
	// silently overstates the cache's benefit.
	CacheHitService sim.Time

	// StreamByClass tags writes with an FDP-style placement stream by
	// tenant class (LC=0, BE=1) so the device's GC segregates their
	// lifetimes. Requires a device in placement mode (EraseUnitPages>0)
	// with PlacementStreams >= 2 to have any effect.
	StreamByClass bool

	// DisableQoS bypasses the scheduler and submits requests directly —
	// the "I/O sched disabled" configuration of Figure 5.
	DisableQoS bool

	// BlockingModel emulates the monolithic run-to-completion model the
	// paper rejects (§4.1): the thread blocks on every Flash access
	// instead of overlapping it with other requests. Requires DisableQoS
	// (it exists only for the two-step ablation).
	BlockingModel bool

	// Shed configures graceful load shedding (internal/ctrl): when a
	// thread's scheduler backlog, connection count or aggregate token debt
	// crosses the configured high watermark, best-effort requests are
	// answered immediately with a shed response instead of queueing
	// without bound. Latency-critical requests are never shed. The zero
	// value disables shedding.
	Shed ctrl.ShedConfig
}

// DefaultConfig returns the calibrated ReFlex dataplane profile: ~1.18us of
// CPU per 4KB request, giving the paper's ~850K IOPS per core (§5.3).
func DefaultConfig(threads int, tokenRate core.Tokens) Config {
	return Config{
		Threads:        threads,
		RxCost:         450,
		SchedFixed:     300,
		SchedPerReq:    26,
		SchedPerTenant: 70,
		SubmitCost:     150,
		CqeCost:        150,
		TxCost:         400,
		MaxBatch:       64,
		SchedTick:      50 * sim.Microsecond,
		ConnBase:       500,
		ConnFactor:     0.08,
		TokenRate:      tokenRate,
	}
}

func (c *Config) validate() error {
	switch {
	case c.Threads <= 0:
		return fmt.Errorf("dataplane: Threads must be positive")
	case c.MaxBatch <= 0:
		return fmt.Errorf("dataplane: MaxBatch must be positive")
	case c.SchedTick <= 0:
		return fmt.Errorf("dataplane: SchedTick must be positive")
	case c.BlockingModel && !c.DisableQoS:
		return fmt.Errorf("dataplane: BlockingModel requires DisableQoS")
	}
	return nil
}

// Server is a simulated ReFlex server fronting one NVMe device.
type Server struct {
	eng      *sim.Engine
	net      *netsim.Network
	endpoint *netsim.Endpoint
	dev      *flashsim.Device
	model    core.CostModel
	cfg      Config
	cache    *readcache.Cache
	shared   *core.SharedState
	threads  []*thread
	tenantAt map[*core.Tenant]int
	conns    map[*Conn]struct{}
	nextConn uint64

	// shedder is the graceful-overload signal (nil when Config.Shed is
	// zero). Threads feed it their backlog each pass and consult it at
	// parse time for best-effort requests.
	shedder *ctrl.Shedder

	// reg/ring are the unified telemetry layer (internal/obs): a
	// virtual-time metrics registry over every layer's stats and the
	// per-request span trace ring. reqSeq numbers spans.
	reg    *obs.Registry
	ring   *obs.Ring
	reqSeq uint64
}

// ModelForDevice derives the cost model from a simulated device's spec.
func ModelForDevice(spec flashsim.Spec) core.CostModel {
	ro := core.TokenUnit
	if spec.ReadOnlyHalf {
		ro = core.TokenUnit / 2
	}
	return core.CostModel{
		ReadCost:         core.TokenUnit,
		ReadOnlyReadCost: ro,
		WriteCost:        core.Tokens(spec.WriteCost) * core.TokenUnit,
	}
}

// NewServer creates a ReFlex server on the given network and device, with
// its own NIC endpoint.
func NewServer(eng *sim.Engine, net *netsim.Network, dev *flashsim.Device, cfg Config) *Server {
	return NewServerOn(eng, net, net.NewEndpoint("reflex", netsim.NullStack(), 7001), dev, cfg)
}

// NewServerOn creates a ReFlex server sharing an existing NIC endpoint —
// several servers (one per device) on one physical machine and link, the
// §5.3 multi-device deployment.
func NewServerOn(eng *sim.Engine, net *netsim.Network, endpoint *netsim.Endpoint, dev *flashsim.Device, cfg Config) *Server {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	s := &Server{
		eng:      eng,
		net:      net,
		endpoint: endpoint,
		dev:      dev,
		model:    ModelForDevice(dev.Spec()),
		cfg:      cfg,
		shared:   core.NewSharedState(cfg.Threads, cfg.TokenRate),
	}
	if cfg.Shed != (ctrl.ShedConfig{}) {
		s.shedder = ctrl.NewShedder(cfg.Shed)
	}
	if cfg.CacheBlocks > 0 {
		if s.cfg.CacheHitService <= 0 {
			s.cfg.CacheHitService = 2 * sim.Microsecond
		}
		mode, err := readcache.ParseMode(cfg.CacheAdmit)
		if err != nil {
			panic(fmt.Errorf("dataplane: %w", err))
		}
		c, err := readcache.New(readcache.Config{
			Blocks:   cfg.CacheBlocks,
			Mode:     mode,
			ReadCost: int64(s.model.ReadCost),
			HitCost:  int64(s.model.CacheServeCost()),
			NoData:   true,
		})
		if err != nil {
			panic(fmt.Errorf("dataplane: %w", err))
		}
		s.cache = c
	}
	for i := 0; i < cfg.Threads; i++ {
		th := &thread{
			srv:  s,
			id:   i,
			core: sim.NewResource(eng, fmt.Sprintf("reflex/core%d", i)),
		}
		th.sched = core.NewScheduler(s.model, i, s.shared)
		th.sched.ReadOnlyProbe = dev.ReadOnlyMode
		s.threads = append(s.threads, th)
	}
	s.initTelemetry()
	return s
}

// Endpoint returns the server's network endpoint.
func (s *Server) Endpoint() *netsim.Endpoint { return s.endpoint }

// Shared returns the scheduler state shared across threads.
func (s *Server) Shared() *core.SharedState { return s.shared }

// Model returns the server's cost model.
func (s *Server) Model() core.CostModel { return s.model }

// Device returns the backing flash device.
func (s *Server) Device() *flashsim.Device { return s.dev }

// Cache returns the DRAM read cache, or nil when Config.CacheBlocks is 0.
func (s *Server) Cache() *readcache.Cache { return s.cache }

// Threads returns the number of dataplane threads.
func (s *Server) Threads() int { return len(s.threads) }

// OnNegLimit installs the LC deficit notification on every thread.
func (s *Server) OnNegLimit(fn func(*core.Tenant)) {
	for _, th := range s.threads {
		th.sched.OnNegLimit = fn
	}
}

// OverrideModel swaps the cost model on every thread (ablation support).
// It must be called before any tenant is registered, because LC rates are
// derived from the model at registration.
func (s *Server) OverrideModel(m core.CostModel) {
	if len(s.tenantAt) > 0 {
		panic("dataplane: OverrideModel after tenant registration")
	}
	s.model = m
	for _, th := range s.threads {
		th.sched.Model = m
	}
}

// OverrideNegLimit changes the LC burst deficit floor on every thread
// (ablation support).
func (s *Server) OverrideNegLimit(v core.Tokens) {
	for _, th := range s.threads {
		th.sched.NegLimit = v
	}
}

// OverrideDonateFraction changes the POS_LIMIT donation fraction on every
// thread (ablation support).
func (s *Server) OverrideDonateFraction(f float64) {
	for _, th := range s.threads {
		th.sched.DonateFraction = f
	}
}

// RegisterTenant places a tenant on the thread with the fewest tenants
// (tenants never span threads, §4.1) and returns the thread index.
func (s *Server) RegisterTenant(t *core.Tenant) int {
	best := 0
	for i, th := range s.threads {
		if th.tenants < s.threads[best].tenants {
			best = i
		}
	}
	s.RegisterTenantOn(t, best)
	return best
}

// RegisterTenantOn places a tenant on a specific thread (used by scaling
// experiments that pin tenants).
func (s *Server) RegisterTenantOn(t *core.Tenant, thread int) {
	th := s.threads[thread]
	th.tenants++
	th.sched.Register(t)
	if s.tenantAt == nil {
		s.tenantAt = make(map[*core.Tenant]int)
	}
	s.tenantAt[t] = thread
}

// threadOf returns the thread a tenant is registered on, or -1.
func (s *Server) threadOf(t *core.Tenant) int {
	if idx, ok := s.tenantAt[t]; ok {
		return idx
	}
	return -1
}

// SubmittedTokens returns the total millitokens admitted across all
// tenants (the "token usage" series of Fig. 6a).
func (s *Server) SubmittedTokens() core.Tokens {
	var total core.Tokens
	for _, th := range s.threads {
		lc, be := th.sched.Tenants()
		for _, t := range lc {
			total += t.Stats().SubmittedTokens
		}
		for _, t := range be {
			total += t.Stats().SubmittedTokens
		}
	}
	return total
}

// Pending returns the number of requests waiting in scheduler queues
// across all threads (time-series "queue depth" column).
func (s *Server) Pending() int {
	var n int
	for _, th := range s.threads {
		n += th.sched.Pending()
	}
	return n
}

// CoreUtilization returns the mean dataplane core utilization.
func (s *Server) CoreUtilization() float64 {
	var u float64
	for _, th := range s.threads {
		u += th.core.Utilization()
	}
	return u / float64(len(s.threads))
}

// Stats aggregates per-thread counters.
type Stats struct {
	Requests   uint64
	Batches    uint64
	MaxBatch   int
	SchedRuns  uint64
	TickPasses uint64
	Shed       uint64
}

// Stats returns aggregate server counters.
func (s *Server) Stats() Stats {
	var st Stats
	for _, th := range s.threads {
		st.Requests += th.requests
		st.Batches += th.batches
		st.SchedRuns += th.sched.Rounds()
		st.TickPasses += th.ticks
		st.Shed += th.shed
		if th.maxBatch > st.MaxBatch {
			st.MaxBatch = th.maxBatch
		}
	}
	return st
}
