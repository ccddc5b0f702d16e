package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/cluster"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/server"
	"github.com/reflex-go/reflex/internal/storage"
)

// failoverConfig parameterizes the kill-the-primary soak.
type failoverConfig struct {
	dur  time.Duration
	size int
	span int64
}

// pairMember is one half of the in-process replicated pair.
type pairMember struct {
	name    string
	srv     *server.Server
	backend storage.Backend
	bk      *cluster.Backup
}

func startMember(name string, backend storage.Backend, epoch uint16, backup bool) (*pairMember, error) {
	srv, err := server.New(server.Config{
		Addr:       "127.0.0.1:0",
		Cores:      1,
		Epoch:      epoch,
		BackupRole: backup,
		Model: core.CostModel{
			ReadCost:         core.TokenUnit,
			ReadOnlyReadCost: core.TokenUnit / 2,
			WriteCost:        10 * core.TokenUnit,
		},
		TokenRate: 400_000 * core.TokenUnit,
	}, backend)
	if err != nil {
		return nil, err
	}
	return &pairMember{name: name, srv: srv, backend: backend}, nil
}

// join attaches m as a live replication backup of the primary.
func (m *pairMember) join(primaryAddr string) {
	m.bk = cluster.StartBackup(primaryAddr, m.srv, cluster.BackupOptions{})
	bk := m.bk
	m.srv.SetOnPromote(func(epoch uint16) { go bk.Stop() })
}

func (m *pairMember) stop() {
	if m.bk != nil {
		m.bk.Stop()
	}
	m.srv.Close()
}

// runFailover is the -failover soak: an in-process primary/backup pair, a
// cluster client issuing sequential acked verifiable writes, a primary
// kill mid-run, and three hard checks afterwards:
//
//  1. zero lost acked writes — every write the client saw acked is
//     readable (with matching contents) from the promoted replica;
//  2. no stale-epoch write accepted — the deposed primary, restarted
//     ignorant of the failover and then fenced, refuses writes;
//  3. the pair heals — the deposed primary rejoins as backup of the new
//     primary and catches up to the full acked history.
//
// Returns a process exit code.
func runFailover(cfg failoverConfig) int {
	if cfg.size < protocol.BlockSize {
		cfg.size = protocol.BlockSize
	}
	fmt.Printf("failover soak: %v of sequential acked writes, kill primary at half-time\n", cfg.dur)

	backendA := storage.NewMem(cfg.span * protocol.BlockSize)
	backendB := storage.NewMem(cfg.span * protocol.BlockSize)
	a, err := startMember("A", backendA, 1, false)
	if err != nil {
		fmt.Printf("failover: start primary: %v\n", err)
		return 1
	}
	b, err := startMember("B", backendB, 1, true)
	if err != nil {
		fmt.Printf("failover: start backup: %v\n", err)
		a.stop()
		return 1
	}
	defer b.stop()
	b.join(a.srv.Addr())

	// Wait for the catch-up stream to complete so every subsequent ack is
	// backed by a replicated copy.
	for i := 0; i < 200 && !a.srv.ReplicaCaughtUp(); i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if !a.srv.ReplicaCaughtUp() {
		fmt.Println("failover: backup never caught up")
		a.stop()
		return 1
	}

	cl, err := client.DialCluster([]string{a.srv.Addr(), b.srv.Addr()}, client.Options{
		Timeout:  500 * time.Millisecond,
		Checksum: true,
	})
	if err != nil {
		fmt.Printf("failover: dial cluster: %v\n", err)
		a.stop()
		return 1
	}
	defer cl.Close()
	h, err := cl.Register(protocol.Registration{Writable: true, BestEffort: true})
	if err != nil {
		fmt.Printf("failover: register: %v\n", err)
		a.stop()
		return 1
	}

	// Sequential verifiable writes: payload block stamped with (seq, lba).
	// An acked seq goes into the ledger; the zero-loss check replays the
	// ledger against whatever replica survives.
	blocks := cfg.span / int64(cfg.size/protocol.BlockSize)
	acked := make(map[uint32]uint64) // lba -> last acked seq
	payload := func(seq uint64, lba uint32) []byte {
		p := make([]byte, cfg.size)
		binary.BigEndian.PutUint64(p, seq)
		binary.BigEndian.PutUint32(p[8:], lba)
		return p
	}
	var seq, ackCount, errCount uint64
	killAt := time.Now().Add(cfg.dur / 2)
	deadline := time.Now().Add(cfg.dur)
	killed := false
	for time.Now().Before(deadline) {
		if !killed && time.Now().After(killAt) {
			fmt.Printf("failover: killing primary %s after %d acked writes\n", a.name, ackCount)
			a.srv.Close()
			killed = true
		}
		seq++
		lba := uint32(int64(seq) % blocks * int64(cfg.size/protocol.BlockSize))
		if err := cl.Write(h, lba, payload(seq, lba)); err != nil {
			errCount++
			continue
		}
		ackCount++
		acked[lba] = seq
	}
	if !killed { // degenerate tiny -duration
		a.srv.Close()
		killed = true
	}
	fmt.Printf("failover: %d acked, %d errored during the outage window; client epoch %d, failovers %d\n",
		ackCount, errCount, cl.Epoch(), cl.Failovers())

	fail := false
	if cl.Failovers() == 0 || cl.Epoch() < 2 {
		fmt.Println("FAIL: client never failed over to the backup")
		fail = true
	}

	// Check 1: zero lost acked writes. Every acked (lba, seq) must read
	// back intact from the promoted replica.
	lost := 0
	for lba, want := range acked {
		got, err := cl.Read(h, lba, cfg.size)
		if err != nil {
			fmt.Printf("FAIL: acked lba %d unreadable after failover: %v\n", lba, err)
			lost++
			continue
		}
		if binary.BigEndian.Uint64(got) != want || binary.BigEndian.Uint32(got[8:]) != lba {
			fmt.Printf("FAIL: acked lba %d holds seq %d, want %d\n",
				lba, binary.BigEndian.Uint64(got), want)
			lost++
		}
	}
	if lost > 0 {
		fmt.Printf("FAIL: %d acked writes lost\n", lost)
		fail = true
	} else {
		fmt.Printf("failover: all %d acked blocks verified on the new primary\n", len(acked))
	}

	// Check 2: no stale-epoch write accepted. Restart the deposed primary
	// on its old backend, still believing it is the epoch-1 primary (the
	// classic zombie). Fence it at the new epoch — exactly what the
	// failing-over client does best-effort — then prove a write bounces.
	z, err := startMember("A'", backendA, 1, false)
	if err != nil {
		fmt.Printf("failover: restart deposed primary: %v\n", err)
		return 1
	}
	if err := fence(z.srv.Addr(), cl.Epoch()); err != nil {
		fmt.Printf("FAIL: fence deposed primary: %v\n", err)
		fail = true
	}
	zc, err := client.DialOptions(z.srv.Addr(), client.Options{Timeout: time.Second})
	if err != nil {
		fmt.Printf("failover: dial deposed primary: %v\n", err)
		return 1
	}
	zh, err := zc.Register(protocol.Registration{Writable: true, BestEffort: true})
	if err != nil {
		fmt.Printf("failover: register on deposed primary: %v\n", err)
		zc.Close()
		return 1
	}
	if err := zc.Write(zh, 0, payload(1<<40, 0)); !errors.Is(err, client.ErrStaleEpoch) {
		fmt.Printf("FAIL: fenced zombie primary accepted a write (err=%v)\n", err)
		fail = true
	} else {
		fmt.Println("failover: fenced zombie refuses writes (stale-epoch)")
	}
	zc.Close()
	z.stop()

	// Check 3: the pair heals. Restart the deposed node as a backup of the
	// new primary; catch-up must deliver the full acked history.
	c, err := startMember("A''", storage.NewMem(cfg.span*protocol.BlockSize), 0, true)
	if err != nil {
		fmt.Printf("failover: restart as backup: %v\n", err)
		return 1
	}
	defer c.stop()
	c.join(b.srv.Addr())
	for i := 0; i < 500 && !b.srv.ReplicaCaughtUp(); i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if !b.srv.ReplicaCaughtUp() {
		fmt.Println("FAIL: rejoined backup never caught up")
		fail = true
	} else {
		// Backups serve reads: verify the acked ledger straight off it.
		bc, err := client.DialOptions(c.srv.Addr(), client.Options{Timeout: time.Second})
		if err != nil {
			fmt.Printf("failover: dial rejoined backup: %v\n", err)
			return 1
		}
		bh, err := bc.Register(protocol.Registration{BestEffort: true})
		if err != nil {
			fmt.Printf("failover: register on rejoined backup: %v\n", err)
			bc.Close()
			return 1
		}
		stale := 0
		for lba, want := range acked {
			got, err := bc.Read(bh, lba, cfg.size)
			if err != nil || binary.BigEndian.Uint64(got) != want {
				stale++
			}
		}
		bc.Close()
		if stale > 0 {
			fmt.Printf("FAIL: rejoined backup missing %d acked blocks after catch-up\n", stale)
			fail = true
		} else {
			fmt.Printf("failover: rejoined backup caught up with all %d acked blocks\n", len(acked))
		}
	}

	if fail {
		return 1
	}
	fmt.Println("failover soak PASS")
	return 0
}

// fence sends a raw OpFence at epoch e and waits for the ack.
func fence(addr string, e uint16) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(2 * time.Second))
	hdr := protocol.Header{Opcode: protocol.OpFence, Epoch: e}
	if err := protocol.WriteMessage(c, &hdr, nil); err != nil {
		return err
	}
	_, err = protocol.ReadMessage(c)
	return err
}
