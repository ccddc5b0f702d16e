package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/cluster"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/faults"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/storage"
)

// pair is an in-process replicated primary/backup pair for tests.
type pair struct {
	a, b *Server
	bk   *cluster.Backup
}

func startPair(t *testing.T, mutateA func(*Config)) *pair {
	t.Helper()
	mk := func(epoch uint16, backup bool, mutate func(*Config)) *Server {
		cfg := Config{
			Addr:       "127.0.0.1:0",
			Cores:      2,
			Epoch:      epoch,
			BackupRole: backup,
			Model:      modelA(),
			TokenRate:  1_000_000 * core.TokenUnit,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		srv, err := New(cfg, storage.NewMem(16<<20))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	p := &pair{
		a: mk(1, false, mutateA),
		b: mk(1, true, nil),
	}
	p.bk = cluster.StartBackup(p.a.Addr(), p.b, cluster.BackupOptions{})
	t.Cleanup(p.bk.Stop)
	bk := p.bk
	p.b.SetOnPromote(func(uint16) { go bk.Stop() })
	deadline := time.Now().Add(5 * time.Second)
	for !p.a.ReplicaCaughtUp() {
		if time.Now().After(deadline) {
			t.Fatal("backup never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return p
}

func (p *pair) dialCluster(t *testing.T, o client.Options) *client.Client {
	t.Helper()
	cl, err := client.DialCluster([]string{p.a.Addr(), p.b.Addr()}, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestReplicationMirrorsAckedWrites: an acked write is on the backup (read
// it straight off the backup server, which serves reads in backup role).
func TestReplicationMirrorsAckedWrites(t *testing.T) {
	p := startPair(t, nil)
	cl := p.dialCluster(t, client.Options{Timeout: 2 * time.Second})
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xC7}, 4096)
	if err := cl.Write(h, 8, data); err != nil {
		t.Fatal(err)
	}

	bc, err := client.Dial(p.b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	bh, err := bc.Register(protocol.Registration{BestEffort: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := bc.Read(bh, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("acked write not present on the backup")
	}
	if p.a.Metrics() == nil || p.a.ReplicaLive() != true {
		t.Fatal("replica session not live on the primary")
	}
}

// TestMigrationSinkFailureFailsClientWrite pins the lost-acked-write
// fix: when the migration sink acks a forwarded write non-OK (the
// destination refused to apply the relayed copy), the client must NOT
// be acked StatusOK — otherwise a later cutover would make a
// destination missing that write authoritative while the client
// believes it durable. The forward ack status must surface in the
// client's write response.
func TestMigrationSinkFailureFailsClientWrite(t *testing.T) {
	srv, cl := startServer(t, nil)
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}

	// Attach a raw migration sink via a ranged OpJoin over blocks [0, 64).
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	send := func(hdr *protocol.Header) {
		t.Helper()
		frame, err := protocol.AppendMessage(nil, hdr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	send(&protocol.Header{Opcode: protocol.OpJoin, LBA: 0, Count: 64})

	br := bufio.NewReaderSize(conn, 1<<20)
	var msg protocol.Message
	if err := protocol.ReadMessageInto(br, &msg, nil); err != nil {
		t.Fatal(err)
	}
	if msg.Header.Opcode != protocol.OpJoin || !msg.Header.IsResponse() || msg.Header.Status != protocol.StatusOK {
		t.Fatalf("join handshake: %+v", msg.Header)
	}
	// Drain the catch-up (ack each chunk OK) until the marker frame.
	for {
		if err := protocol.ReadMessageInto(br, &msg, nil); err != nil {
			t.Fatal(err)
		}
		if msg.Header.Opcode == protocol.OpJoin && !msg.Header.IsResponse() {
			break // catch-up marker: the window is across
		}
		if msg.Header.Opcode == protocol.OpReplicate && !msg.Header.IsResponse() {
			send(&protocol.Header{
				Opcode: protocol.OpReplicate,
				Flags:  protocol.FlagResponse,
				Cookie: msg.Header.Cookie,
				Epoch:  msg.Header.Epoch,
				LBA:    msg.Header.LBA,
				Status: protocol.StatusOK,
			})
		}
	}

	// Serve exactly one more forward — the client write below — and
	// refuse it the way a destination whose apply failed would.
	sinkDone := make(chan error, 1)
	go func() {
		var fwd protocol.Message
		for {
			if err := protocol.ReadMessageInto(br, &fwd, nil); err != nil {
				sinkDone <- err
				return
			}
			if fwd.Header.Opcode != protocol.OpReplicate || fwd.Header.IsResponse() {
				continue
			}
			frame, err := protocol.AppendMessage(nil, &protocol.Header{
				Opcode: protocol.OpReplicate,
				Flags:  protocol.FlagResponse,
				Cookie: fwd.Header.Cookie,
				Epoch:  fwd.Header.Epoch,
				LBA:    fwd.Header.LBA,
				Status: protocol.StatusDeviceError,
			}, nil)
			if err == nil {
				_, err = conn.Write(frame)
			}
			sinkDone <- err
			return
		}
	}()

	err = cl.Write(h, 8, bytes.Repeat([]byte{0x5A}, 4096))
	if !errors.Is(err, client.ErrDevice) {
		t.Fatalf("write with failing sink err = %v, want ErrDevice (the ack must not be StatusOK)", err)
	}
	if err := <-sinkDone; err != nil {
		t.Fatalf("sink: %v", err)
	}
}

// TestBackupRefusesClientWrites: backup role serves reads, fences writes.
func TestBackupRefusesClientWrites(t *testing.T) {
	p := startPair(t, nil)
	bc, err := client.Dial(p.b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	bh, err := bc.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	err = bc.Write(bh, 0, make([]byte, 512))
	if !errors.Is(err, client.ErrStaleEpoch) {
		t.Fatalf("backup write err = %v, want ErrStaleEpoch", err)
	}
	if _, err := bc.Read(bh, 0, 512); err != nil {
		t.Fatalf("backup refused a read: %v", err)
	}
}

// TestPromoteFenceEpochRules pins the promotion/fencing state machine.
func TestPromoteFenceEpochRules(t *testing.T) {
	srv, _ := startServer(t, func(c *Config) { c.Epoch = 5 })

	if _, st := srv.Promote(4); st != protocol.StatusStaleEpoch {
		t.Fatal("promoted at a lower epoch")
	}
	if _, st := srv.Promote(5); st != protocol.StatusOK {
		t.Fatal("idempotent re-promote at current epoch refused on an unfenced primary")
	}
	if e, st := srv.Promote(7); st != protocol.StatusOK || e != 7 {
		t.Fatalf("promote(7) = %d,%v", e, st)
	}
	if e := srv.Fence(6); e != 7 {
		t.Fatalf("stale fence moved epoch to %d", e)
	}
	if srv.IsFenced() {
		t.Fatal("stale fence deposed the primary")
	}
	if e := srv.Fence(9); e != 9 || !srv.IsFenced() {
		t.Fatal("higher-epoch fence did not depose")
	}
	// Fenced at 9: promote at 9 must fail (only a strictly newer epoch
	// can resurrect a deposed primary), promote at 10 succeeds.
	if _, st := srv.Promote(9); st != protocol.StatusStaleEpoch {
		t.Fatal("promoted a fenced server at its fenced epoch")
	}
	if _, st := srv.Promote(10); st != protocol.StatusOK || srv.IsFenced() {
		t.Fatal("higher-epoch promote did not clear the fence")
	}
}

// TestFencedServerRejectsWrites: OpFence at a higher epoch makes the old
// primary refuse writes — the no-stale-epoch-write-accepted invariant.
func TestFencedServerRejectsWrites(t *testing.T) {
	srv, cl := startServer(t, func(c *Config) { c.Epoch = 1 })
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(h, 0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	srv.Fence(2)
	err = cl.Write(h, 0, make([]byte, 512))
	if !errors.Is(err, client.ErrStaleEpoch) {
		t.Fatalf("fenced write err = %v, want ErrStaleEpoch", err)
	}
	// Reads still served: a fenced replica remains a valid hedge target.
	if _, err := cl.Read(h, 0, 512); err != nil {
		t.Fatalf("fenced read err = %v", err)
	}
}

// TestChecksumEndToEnd: with Options.Checksum both directions carry CRC32C
// trailers; a clean server round-trips them, and server-side payload
// corruption surfaces as ErrChecksum at the client, counted on the server.
func TestChecksumEndToEnd(t *testing.T) {
	srv, _ := startServer(t, nil)
	cl, err := client.DialOptions(srv.Addr(), client.Options{Checksum: true, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5C}, 4096)
	if err := cl.Write(h, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(h, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("checksummed round trip corrupted data")
	}

	// Now a server whose device path corrupts read payloads after sealing.
	inj := faults.New(faults.Config{Seed: 2, CorruptProb: 1})
	srv2, _ := startServer(t, func(c *Config) { c.Faults = inj })
	cl2, err := client.DialOptions(srv2.Addr(), client.Options{Checksum: true, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	h2, err := cl2.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	// Writes carry client-sealed checksums; the server verifies before
	// apply, so a corrupted inbound write bounces with ErrChecksum too.
	werr := cl2.Write(h2, 0, data)
	rerr := error(nil)
	if werr == nil {
		_, rerr = cl2.Read(h2, 0, 4096)
	}
	if !errors.Is(werr, client.ErrChecksum) && !errors.Is(rerr, client.ErrChecksum) {
		t.Fatalf("corruption not detected: write err %v, read err %v", werr, rerr)
	}
	_ = srv2
}

// metricValue reads one counter/gauge off a server's registry snapshot.
func metricValue(t *testing.T, srv *Server, name string) float64 {
	t.Helper()
	for _, m := range srv.Metrics().Snapshot().Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q not registered", name)
	return 0
}

// TestInboundWriteChecksumRejected corrupts a client-sealed write payload
// in flight (raw wire, one byte flipped after sealing) and asserts the
// server refuses it with bad-checksum — corrupted data never reaches the
// device — and counts it.
func TestInboundWriteChecksumRejected(t *testing.T) {
	srv, _ := startServer(t, nil)
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))

	// Clean registration.
	reg := beWritable()
	rh := protocol.Header{Opcode: protocol.OpRegister}
	if err := protocol.WriteMessage(c, &rh, reg.Marshal()); err != nil {
		t.Fatal(err)
	}
	m, err := protocol.ReadMessage(c)
	if err != nil || m.Header.Status != protocol.StatusOK {
		t.Fatalf("register: %v %v", err, m)
	}
	handle := m.Header.Handle

	// Sealed write with a post-seal byte flip: exactly what a flaky NIC or
	// switch does to the frame.
	data := bytes.Repeat([]byte{3}, 4096)
	sealed := protocol.SealChecksum(data)
	sealed[100] ^= 0xA5
	wh := protocol.Header{
		Opcode: protocol.OpWrite,
		Flags:  protocol.FlagChecksum,
		Handle: handle,
		Count:  uint32(len(data)),
	}
	if err := protocol.WriteMessage(c, &wh, sealed); err != nil {
		t.Fatal(err)
	}
	m, err = protocol.ReadMessage(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.Status != protocol.StatusBadChecksum {
		t.Fatalf("corrupted inbound write status = %v, want bad-checksum", m.Header.Status)
	}
	if metricValue(t, srv, "checksum_errors") == 0 {
		t.Fatal("server did not count the checksum reject")
	}
	// The device must still hold zeros at that LBA.
	cl2, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	h2, err := cl2.Register(protocol.Registration{BestEffort: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl2.Read(h2, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatal("corrupted write reached the device")
	}
}

// TestClusterClientFailsOverOnPrimaryDeath: kill the primary; the cluster
// client promotes the backup and traffic continues at a higher epoch.
func TestClusterClientFailsOverOnPrimaryDeath(t *testing.T) {
	p := startPair(t, nil)
	cl := p.dialCluster(t, client.Options{Timeout: 500 * time.Millisecond})
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, 512)
	if err := cl.Write(h, 4, data); err != nil {
		t.Fatal(err)
	}

	p.a.Close()

	// The very next writes ride the failover machinery; give the client a
	// few attempts (timeout -> rotate -> promote -> re-register -> replay).
	var lastErr error
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if lastErr = cl.Write(h, 8, data); lastErr == nil {
			break
		}
	}
	if lastErr != nil {
		t.Fatalf("writes never recovered after primary death: %v", lastErr)
	}
	if cl.Failovers() == 0 {
		t.Fatal("no failover counted")
	}
	if cl.Epoch() < 2 {
		t.Fatalf("client epoch %d after failover, want >= 2", cl.Epoch())
	}
	if p.b.IsBackupRole() {
		t.Fatal("backup not promoted")
	}
	// The pre-kill acked write survived.
	got, err := cl.Read(h, 4, 512)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("acked write lost after failover: %v", err)
	}
}

// TestHedgedReadWinsDuringStall: the primary stalls every read for much
// longer than the hedge delay; hedges to the backup must win and keep
// observed latency far below the stall.
func TestHedgedReadWinsDuringStall(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 4, DeviceStallProb: 1, DeviceStallDur: 300 * time.Millisecond})
	p := startPair(t, func(c *Config) { c.Faults = inj })
	// Every connection the client opens, the hedge's backup connection
	// included, must go through the caller's dialer.
	var dmu sync.Mutex
	dialed := map[string]int{}
	cl := p.dialCluster(t, client.Options{
		Timeout:       5 * time.Second,
		HedgeReads:    true,
		HedgeMaxDelay: 20 * time.Millisecond,
		Dialer: func(addr string) (net.Conn, error) {
			dmu.Lock()
			dialed[addr]++
			dmu.Unlock()
			return net.Dial("tcp", addr)
		},
	})
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	// Seed data through the stalling primary (writes stall too; patience).
	if err := cl.Write(h, 0, bytes.Repeat([]byte{9}, 512)); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := cl.Read(h, 0, 512); err != nil {
			t.Fatalf("hedged read %d: %v", i, err)
		}
		if d := time.Since(t0); d > 200*time.Millisecond {
			t.Fatalf("hedged read %d took %v; the hedge never rescued it", i, d)
		}
	}
	if cl.HedgesWon() == 0 {
		t.Fatalf("no hedge wins (issued %d)", cl.HedgesIssued())
	}
	dmu.Lock()
	defer dmu.Unlock()
	if dialed[p.b.Addr()] == 0 {
		t.Fatalf("hedge connection to the backup %s bypassed the caller's dialer (dialed %v)",
			p.b.Addr(), dialed)
	}
}

// TestBarrierReplicationInterleave: barriers must order client I/O even
// while write acks are deferred on the replication stream and the catch-up
// stream is concurrently walking the device. The write behind the barrier
// completes (backup-acked) before the barrier; the read behind the barrier
// sees its data.
func TestBarrierReplicationInterleave(t *testing.T) {
	p := startPair(t, func(c *Config) { c.WriteLatency = 2 * time.Millisecond })
	cl := p.dialCluster(t, client.Options{Timeout: 5 * time.Second})
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}

	// Re-attach a fresh backup session so the catch-up stream runs
	// concurrently with the barrier traffic below.
	bk2 := cluster.StartBackup(p.a.Addr(), p.b, cluster.BackupOptions{})
	defer bk2.Stop()

	want := make([]byte, 512)
	for round := 0; round < 20; round++ {
		want[0] = byte(round + 1)
		wc, err := cl.GoWrite(h, 16, want)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := cl.GoBarrier(h)
		if err != nil {
			t.Fatal(err)
		}
		<-bc.Done
		if bc.Err != nil {
			t.Fatalf("barrier: %v", bc.Err)
		}
		// Ordering invariant: the barrier completed, so the write — whose
		// ack was deferred until the backup acked — must be done too.
		select {
		case <-wc.Done:
		default:
			t.Fatal("barrier completed before the replicated write's ack")
		}
		if wc.Err != nil {
			t.Fatalf("write: %v", wc.Err)
		}
		got, err := cl.Read(h, 16, 512)
		if err != nil || got[0] != byte(round+1) {
			t.Fatalf("read after barrier: %v (got[0]=%d want %d)", err, got[0], round+1)
		}
	}
}

// TestClusterFailoverSoak is the CI chaos job for the replication layer:
// concurrent writers on disjoint LBA ranges drive a cluster client with a
// verifiable-write ledger; the primary is killed mid-soak and restarted as
// a fresh backup of the promoted server; an LC probe runs throughout and
// must never be refused for overload. Afterwards: zero acked writes lost,
// the backup promoted exactly once at epoch 2 with both clients on that
// epoch, LC shed count zero.
func TestClusterFailoverSoak(t *testing.T) {
	dur := 3 * time.Second
	if testing.Short() {
		dur = time.Second
	}
	p := startPair(t, nil)
	cl := p.dialCluster(t, client.Options{Timeout: 400 * time.Millisecond, Checksum: true})
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const perWriter = 256 // disjoint 512B blocks per writer
	type ledger struct {
		mu    sync.Mutex
		acked map[uint32]uint64
	}
	ledgers := make([]*ledger, writers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ackTotal, errTotal atomic.Uint64
	for w := 0; w < writers; w++ {
		w := w
		ledgers[w] = &ledger{acked: make(map[uint32]uint64)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seq uint64
			buf := make([]byte, 512)
			for {
				select {
				case <-stop:
					return
				default:
				}
				seq++
				lba := uint32(w*perWriter) + uint32(seq%perWriter)
				binary.BigEndian.PutUint64(buf, seq)
				binary.BigEndian.PutUint32(buf[8:], lba)
				if err := cl.Write(h, lba, buf); err != nil {
					errTotal.Add(1)
					continue
				}
				ackTotal.Add(1)
				ledgers[w].mu.Lock()
				ledgers[w].acked[lba] = seq
				ledgers[w].mu.Unlock()
			}
		}()
	}

	// LC probe: latency-critical reads must never be refused for overload,
	// failover or not.
	var lcShed atomic.Uint64
	var lcEpoch atomic.Uint32
	wg.Add(1)
	go func() {
		defer wg.Done()
		lc, err := client.DialCluster([]string{p.a.Addr(), p.b.Addr()}, client.Options{
			Timeout: 400 * time.Millisecond,
		})
		if err != nil {
			return
		}
		defer lc.Close()
		lh, err := lc.Register(protocol.Registration{
			IOPS: 1000, ReadPercent: 100,
			LatencyP95: uint64(time.Millisecond.Nanoseconds()),
		})
		if err != nil {
			return
		}
		for {
			select {
			case <-stop:
				lcEpoch.Store(uint32(lc.Epoch()))
				return
			default:
			}
			if _, err := lc.Read(lh, 0, 512); errors.Is(err, client.ErrOverloaded) {
				lcShed.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	time.Sleep(dur / 2)
	p.a.Close() // kill the primary mid-soak
	time.Sleep(dur / 2)
	close(stop)
	wg.Wait()

	// Either client may be the one that promotes the backup: the other
	// reconnects to a primary already at epoch 2 and adopts it.
	if n := metricValue(t, p.b, "cluster_promotions"); n != 1 || p.b.IsBackupRole() || p.b.ClusterEpoch() != 2 {
		t.Fatalf("survivor: %v promotions, backup role %v, epoch %d; want one promotion to primary at epoch 2",
			n, p.b.IsBackupRole(), p.b.ClusterEpoch())
	}
	if cl.Epoch() != 2 || lcEpoch.Load() != 2 {
		t.Fatalf("clients did not reach epoch 2: writers %d (failovers %d), LC probe %d",
			cl.Epoch(), cl.Failovers(), lcEpoch.Load())
	}
	if lcShed.Load() > 0 {
		t.Fatalf("LC probe shed %d times across the failover", lcShed.Load())
	}

	// Zero lost acked writes: replay every ledger against the survivor.
	lost := 0
	for _, ld := range ledgers {
		ld.mu.Lock()
		for lba, seq := range ld.acked {
			got, err := cl.Read(h, lba, 512)
			if err != nil ||
				binary.BigEndian.Uint64(got) != seq ||
				binary.BigEndian.Uint32(got[8:]) != lba {
				lost++
			}
		}
		ld.mu.Unlock()
	}
	if lost > 0 {
		t.Fatalf("%d acked writes lost after failover (acked %d, errored %d)",
			lost, ackTotal.Load(), errTotal.Load())
	}
	if ackTotal.Load() == 0 {
		t.Fatal("soak acked nothing; not a real run")
	}
	t.Logf("soak: %d acked, %d errored, %d failovers, epoch %d, 0 lost",
		ackTotal.Load(), errTotal.Load(), cl.Failovers(), cl.Epoch())
}
