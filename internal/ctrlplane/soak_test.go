// Chaos soak for the replicated control plane: kill the leader replica
// mid-MoveShard with live acked writers on the moving shard, and require
// the successor to finish (or roll back) the move with zero lost acked
// writes and no installed map version ever regressing. External test
// package — it drives real servers through internal/server.
package ctrlplane_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/ctrlplane"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/server"
	"github.com/reflex-go/reflex/internal/shard"
	"github.com/reflex-go/reflex/internal/storage"
)

func soakServer(t *testing.T, name string) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{
		Addr:  "127.0.0.1:0",
		Cores: 2,
		Model: core.CostModel{
			ReadCost:         core.TokenUnit,
			ReadOnlyReadCost: core.TokenUnit / 2,
			WriteCost:        10 * core.TokenUnit,
		},
		TokenRate: 1_000_000 * core.TokenUnit,
		NodeName:  name,
	}, storage.NewMem(32<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func soakBlock(lba uint32, seq uint64) []byte {
	b := make([]byte, 512)
	binary.BigEndian.PutUint32(b, lba)
	binary.BigEndian.PutUint64(b[4:], seq)
	for i := 12; i < len(b); i++ {
		b[i] = byte(lba + uint32(seq) + uint32(i))
	}
	return b
}

// journalOrder returns the first position of each kind in the journal
// (-1 when absent).
func journalOrder(j *obs.Journal, kinds ...obs.EventKind) []int {
	events := j.Recent(2048)
	out := make([]int, len(kinds))
	for i := range out {
		out[i] = -1
	}
	for pos, e := range events {
		for i, k := range kinds {
			if out[i] == -1 && e.Kind == k {
				out[i] = pos
			}
		}
	}
	return out
}

func TestCtrlplaneLeaderKillSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	const (
		numShards   = 4
		shardBlocks = 1024
		leaseTTL    = 300 * time.Millisecond
	)

	// Data plane: three solo servers.
	srvs := make([]*server.Server, 3)
	dataNodes := make([]shard.Node, 3)
	for i := range srvs {
		name := fmt.Sprintf("node%d", i)
		srvs[i] = soakServer(t, name)
		dataNodes[i] = shard.Node{Name: name, Addrs: []string{srvs[i].Addr()}}
	}

	// Control plane: three replicas, addresses bound before any starts.
	lns := make([]net.Listener, 3)
	addrs := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	reps := make([]*ctrlplane.Replica, 3)
	journals := make([]*obs.Journal, 3)
	for i := range reps {
		journals[i] = obs.NewJournal(2048)
		rep, err := ctrlplane.NewReplica(ctrlplane.ReplicaConfig{
			Ctrl: ctrlplane.Config{
				Self:     addrs[i],
				Peers:    addrs,
				LeaseTTL: leaseTTL,
				Journal:  journals[i],
				Listener: lns[i],
				Logf:     t.Logf,
			},
			Coord: shard.CoordinatorConfig{
				Nodes:          dataNodes,
				NumShards:      numShards,
				ShardBlocks:    shardBlocks,
				InstallTimeout: 2 * time.Second,
				Logf:           t.Logf,
			},
			AntiEntropyEvery: 500 * time.Millisecond,
			MoveTimeout:      30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rep.Stop)
		reps[i] = rep
	}

	waitRep := func(what string, timeout time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	leaderIdx := -1
	waitRep("initial leader + seeded map", 10*time.Second, func() bool {
		for i, r := range reps {
			if r.Coordinator() != nil && r.Node().IsLeader() {
				leaderIdx = i
				return true
			}
		}
		return false
	})
	leader := reps[leaderIdx]
	waitRep("seed map installed on the data plane", 10*time.Second, func() bool {
		for _, s := range srvs {
			if s.ShardMapVersion() == 0 {
				return false
			}
		}
		return true
	})

	// Per-server version monotonicity poller: no installed version may
	// ever regress, whatever the two leaderships install.
	versionStop := make(chan struct{})
	versionDone := make(chan string, 1)
	go func() {
		last := make([]uint32, len(srvs))
		for {
			select {
			case <-versionStop:
				versionDone <- ""
				return
			default:
			}
			for i, s := range srvs {
				v := s.ShardMapVersion()
				if v < last[i] {
					versionDone <- fmt.Sprintf("server %d regressed v%d -> v%d", i, last[i], v)
					return
				}
				last[i] = v
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Pick a shard owned by node0 and start ledgered writers on it.
	m := leader.Coordinator().Map()
	moveShard := -1
	for s := 0; s < numShards; s++ {
		if m.Nodes[m.Assign[s]].Name == "node0" {
			moveShard = s
			break
		}
	}
	if moveShard < 0 {
		t.Skip("node0 owns nothing (improbable)")
	}
	base := uint32(moveShard) * shardBlocks

	router, err := shard.NewRouter(shard.RouterConfig{
		Seeds: []string{srvs[0].Addr(), srvs[1].Addr(), srvs[2].Addr()},
		Reg:   protocol.Registration{BestEffort: true, Writable: true},
		Opts:  client.Options{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })

	var (
		mu       sync.Mutex
		ledger   = map[uint32]uint64{}
		stop     = make(chan struct{})
		writerWG sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			seq := uint64(w) << 32
			for {
				select {
				case <-stop:
					return
				default:
				}
				seq++
				lba := base + uint32(seq%97) + uint32(w)*101
				if err := router.Write(lba, soakBlock(lba, seq)); err != nil {
					t.Errorf("writer %d seq %d: %v", w, seq, err)
					return
				}
				mu.Lock()
				ledger[lba] = seq
				mu.Unlock()
			}
		}(w)
	}
	// Latency-critical probe: the data plane must stay available through
	// the control-plane failover (reads never depend on the leader).
	probeLBA := base + 7
	if err := router.Write(probeLBA, soakBlock(probeLBA, 1)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	ledger[probeLBA] = 1
	mu.Unlock()
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := router.Read(probeLBA, 512); err != nil {
				t.Errorf("LC probe read: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Launch the move, then kill the leader as soon as the dual-ownership
	// window is committed and journaled.
	moveErr := make(chan error, 1)
	go func() { moveErr <- leader.MoveShard(moveShard, "node1", 30*time.Second) }()
	waitRep("dual-ownership window", 10*time.Second, func() bool {
		for _, e := range journals[leaderIdx].Recent(2048) {
			if e.Kind == obs.EvMovePrepare {
				return true
			}
		}
		return false
	})
	killedAt := time.Now()
	leader.Stop()
	if err := <-moveErr; err == nil {
		t.Log("move finished before the kill landed (narrow window); still validating ledger")
	} else {
		t.Logf("killed leader's move returned: %v", err)
	}

	// A successor takes over and resolves the move from the replicated
	// log: either it completes at node1 or the window is rolled back.
	var succIdx int
	waitRep("successor leader", 10*time.Second, func() bool {
		for i, r := range reps {
			if i != leaderIdx && r.Node().IsLeader() && r.Coordinator() != nil {
				succIdx = i
				return true
			}
		}
		return false
	})
	succ := reps[succIdx]
	t.Logf("failover to replica %d in %v (lease %v)", succIdx, time.Since(killedAt), leaseTTL)
	waitRep("move resolution", 30*time.Second, func() bool {
		st := succ.Node().StateSnapshot()
		if st.Move != nil {
			return false
		}
		c := succ.Coordinator()
		if c == nil {
			return false
		}
		return c.Map().Migrating[moveShard] == shard.Unassigned
	})
	finalMap := succ.Coordinator().Map()
	owner := finalMap.Nodes[finalMap.Assign[moveShard]].Name
	t.Logf("move resolved: shard %d owned by %s (map v%d)", moveShard, owner, finalMap.Version)

	// Let the writers run on the resolved map, then stop everything.
	time.Sleep(300 * time.Millisecond)
	close(stop)
	writerWG.Wait()
	close(versionStop)
	if msg := <-versionDone; msg != "" {
		t.Fatalf("shard_map_version regressed: %s", msg)
	}

	// Journal-order assertion on the successor: elect -> lease ->
	// (move-resume -> move-done) | move-abort, strictly in that order.
	ord := journalOrder(journals[succIdx],
		obs.EvCtrlElect, obs.EvCtrlLease, obs.EvMoveResume, obs.EvMoveDone, obs.EvMoveAbort)
	elect, lease, resume, doneEv, abort := ord[0], ord[1], ord[2], ord[3], ord[4]
	if elect < 0 || lease < 0 || lease < elect {
		t.Fatalf("successor journal missing elect->lease order: elect=%d lease=%d", elect, lease)
	}
	if resume >= 0 {
		if resume < lease {
			t.Fatalf("move resumed before the lease: resume=%d lease=%d", resume, lease)
		}
		if doneEv < 0 && abort < 0 {
			t.Fatal("resumed move neither completed nor aborted in the journal")
		}
		if doneEv >= 0 && doneEv < resume {
			t.Fatalf("move-done before move-resume: done=%d resume=%d", doneEv, resume)
		}
	}

	// Zero lost acked writes: every ledgered write reads back, through a
	// fresh router with no warm state.
	mu.Lock()
	defer mu.Unlock()
	if len(ledger) == 0 {
		t.Fatal("writers acked nothing")
	}
	r2, err := shard.NewRouter(shard.RouterConfig{
		Seeds: []string{srvs[0].Addr(), srvs[1].Addr(), srvs[2].Addr()},
		Reg:   protocol.Registration{BestEffort: true},
		Opts:  client.Options{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r2.Close() })
	for lba, seq := range ledger {
		got, err := r2.Read(lba, 512)
		if err != nil {
			t.Fatalf("ledger read lba %d: %v", lba, err)
		}
		if !bytes.Equal(got, soakBlock(lba, seq)) {
			t.Fatalf("lba %d: acked seq %d lost across the leader kill", lba, seq)
		}
	}
	t.Logf("soak clean: %d ledgered LBAs verified, shard %d at %s", len(ledger), moveShard, owner)
}
