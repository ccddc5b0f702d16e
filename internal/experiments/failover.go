package experiments

import (
	"encoding/binary"
	"sort"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/cluster"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/faults"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/server"
	"github.com/reflex-go/reflex/internal/sim"
	"github.com/reflex-go/reflex/internal/storage"
)

// ExtFailover is the replication/failover extension experiment. Unlike the
// simulator-driven tables it runs the real TCP server pair wall-clock,
// because the subjects under test — the replication stream, the hedged-read
// race, and the client's failover machinery — live in the real stack.
//
// Three phases, one row each:
//
//   - "gc-pulse unhedged": the primary suffers injected device stalls (a
//     GC pulse: ~10% of reads stall for milliseconds). A plain cluster
//     client reads through them; its p95 is the stall.
//   - "gc-pulse hedged": same pulse, hedging on. Once the adaptive delay
//     (the client's own windowed read p95, clamped) is overtaken, the read
//     is duplicated to the backup and the first response wins; the stall
//     disappears from the tail. The claim: hedged p95 <= unhedged p95.
//   - "kill-primary": sequential acked writes with the primary killed
//     mid-run. The client promotes the backup (epoch bump) and every acked
//     write must remain readable — lost_acked is the zero-loss check.
type failPhase struct {
	name      string
	reads     int
	p50, p95  time.Duration
	p99       time.Duration
	hIssued   uint64
	hWon      uint64
	failovers uint64
	lost      int
}

// ExtFailover runs the three phases and tabulates them.
func ExtFailover(scale Scale) *Table {
	t := &Table{
		ID:    "ext-failover",
		Title: "Replicated pair: hedged reads under GC pulses, kill-the-primary failover",
		Columns: []string{
			"phase", "ops", "p50_us", "p95_us", "p99_us",
			"hedge_issued", "hedge_won", "failovers", "lost_acked",
		},
		Notes: "hedged p95 <= unhedged p95 under the pulse; lost_acked must be 0 after failover",
	}
	dur := time.Duration(scale.dur(2 * sim.Second))

	rows := []failPhase{
		runGCPulsePhase("gc-pulse unhedged", false, dur),
		runGCPulsePhase("gc-pulse hedged", true, dur),
		runKillPhase("kill-primary", dur),
	}
	for _, r := range rows {
		t.Add(r.name, r.reads,
			us(int64(r.p50)), us(int64(r.p95)), us(int64(r.p99)),
			r.hIssued, r.hWon, r.failovers, r.lost)
	}
	return t
}

// failPair is an in-process primary/backup pair over mem backends.
type failPair struct {
	a, b     *server.Server
	backendA storage.Backend
	bk       *cluster.Backup
}

func startFailPair(inj *faults.Injector) (*failPair, error) {
	const span = 4096 * protocol.BlockSize
	mk := func(backend storage.Backend, epoch uint16, backup bool, faultsInj *faults.Injector) (*server.Server, error) {
		return server.New(server.Config{
			Addr:       "127.0.0.1:0",
			Cores:      1,
			Epoch:      epoch,
			BackupRole: backup,
			Faults:     faultsInj,
			Model: core.CostModel{
				ReadCost:         core.TokenUnit,
				ReadOnlyReadCost: core.TokenUnit / 2,
				WriteCost:        10 * core.TokenUnit,
			},
			TokenRate: 400_000 * core.TokenUnit,
		}, backend)
	}
	backendA := storage.NewMem(span)
	a, err := mk(backendA, 1, false, inj) // the pulse hits only the primary
	if err != nil {
		return nil, err
	}
	b, err := mk(storage.NewMem(span), 1, true, nil)
	if err != nil {
		a.Close()
		return nil, err
	}
	p := &failPair{a: a, b: b, backendA: backendA}
	p.bk = cluster.StartBackup(a.Addr(), b, cluster.BackupOptions{})
	bk := p.bk
	b.SetOnPromote(func(uint16) { go bk.Stop() })
	for i := 0; i < 200 && !a.ReplicaCaughtUp(); i++ {
		time.Sleep(5 * time.Millisecond)
	}
	return p, nil
}

func (p *failPair) close() {
	p.bk.Stop()
	p.a.Close()
	p.b.Close()
}

func pct(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	return lat[int(q*float64(len(lat)-1))]
}

// runGCPulsePhase measures synchronous read latency through a primary
// whose device stalls (hedged or not).
func runGCPulsePhase(name string, hedged bool, dur time.Duration) failPhase {
	// The pulse: ~10% of primary reads stall for 8ms — far above the
	// sub-millisecond base service time, so it owns the unhedged tail.
	inj := faults.New(faults.Config{
		Seed:            11,
		DeviceStallProb: 0.10,
		DeviceStallDur:  8 * time.Millisecond,
	})
	p, err := startFailPair(inj)
	if err != nil {
		return failPhase{name: name}
	}
	defer p.close()

	cl, err := client.DialCluster([]string{p.a.Addr(), p.b.Addr()}, client.Options{
		Timeout:    2 * time.Second,
		HedgeReads: hedged,
	})
	if err != nil {
		return failPhase{name: name}
	}
	defer cl.Close()
	h, err := cl.Register(protocol.Registration{Writable: true, BestEffort: true})
	if err != nil {
		return failPhase{name: name}
	}
	buf := make([]byte, 4096)
	for lba := uint32(0); lba < 512; lba += 8 {
		cl.Write(h, lba, buf)
	}

	var lat []time.Duration
	deadline := time.Now().Add(dur)
	lba := uint32(0)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		if _, err := cl.Read(h, lba, 4096); err == nil {
			lat = append(lat, time.Since(t0))
		}
		lba = (lba + 8) % 512
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return failPhase{
		name:    name,
		reads:   len(lat),
		p50:     pct(lat, 0.50),
		p95:     pct(lat, 0.95),
		p99:     pct(lat, 0.99),
		hIssued: cl.HedgesIssued(),
		hWon:    cl.HedgesWon(),
	}
}

// runKillPhase issues sequential acked verifiable writes, kills the
// primary mid-run, and counts acked writes lost after the failover.
func runKillPhase(name string, dur time.Duration) failPhase {
	p, err := startFailPair(nil)
	if err != nil {
		return failPhase{name: name}
	}
	defer p.close()

	cl, err := client.DialCluster([]string{p.a.Addr(), p.b.Addr()}, client.Options{
		Timeout:  300 * time.Millisecond,
		Checksum: true,
	})
	if err != nil {
		return failPhase{name: name}
	}
	defer cl.Close()
	h, err := cl.Register(protocol.Registration{Writable: true, BestEffort: true})
	if err != nil {
		return failPhase{name: name}
	}

	acked := make(map[uint32]uint64)
	var lat []time.Duration
	var seq uint64
	killAt := time.Now().Add(dur / 2)
	deadline := time.Now().Add(dur)
	killed := false
	buf := make([]byte, 4096)
	for time.Now().Before(deadline) {
		if !killed && time.Now().After(killAt) {
			p.a.Close()
			killed = true
		}
		seq++
		lba := uint32(seq % 512 * 8)
		binary.BigEndian.PutUint64(buf, seq)
		t0 := time.Now()
		if err := cl.Write(h, lba, buf); err == nil {
			lat = append(lat, time.Since(t0))
			acked[lba] = seq
		}
	}
	if !killed {
		p.a.Close()
	}

	lost := 0
	for lba, want := range acked {
		got, err := cl.Read(h, lba, 4096)
		if err != nil || binary.BigEndian.Uint64(got) != want {
			lost++
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return failPhase{
		name:      name,
		reads:     len(lat),
		p50:       pct(lat, 0.50),
		p95:       pct(lat, 0.95),
		p99:       pct(lat, 0.99),
		failovers: cl.Failovers(),
		lost:      lost,
	}
}
