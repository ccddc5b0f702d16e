package server

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/storage"
)

func modelA() core.CostModel {
	return core.CostModel{
		ReadCost:         core.TokenUnit,
		ReadOnlyReadCost: core.TokenUnit / 2,
		WriteCost:        10 * core.TokenUnit,
	}
}

func startServer(t *testing.T, mutate func(*Config)) (*Server, *client.Client) {
	t.Helper()
	cfg := Config{
		Addr:      "127.0.0.1:0",
		Cores:     2,
		Model:     modelA(),
		TokenRate: 1_000_000 * core.TokenUnit, // effectively unthrottled
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg, storage.NewMem(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func beWritable() protocol.Registration {
	return protocol.Registration{BestEffort: true, Writable: true}
}

func TestRegisterWriteReadRoundTrip(t *testing.T) {
	_, cl := startServer(t, nil)
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	if h == 0 {
		t.Fatal("zero handle")
	}
	data := bytes.Repeat([]byte{0xA7}, 4096)
	if err := cl.Write(h, 128, data); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(h, 128, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read returned different data")
	}
	// Unwritten area reads back zero.
	zero, err := cl.Read(h, 4096, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range zero {
		if b != 0 {
			t.Fatal("unwritten block not zero")
		}
	}
}

func TestLargeIO(t *testing.T) {
	_, cl := startServer(t, nil)
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := cl.Write(h, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(h, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large IO corrupted")
	}
}

func TestWriteDeniedForReadOnlyTenant(t *testing.T) {
	_, cl := startServer(t, nil)
	h, err := cl.Register(protocol.Registration{BestEffort: true, Writable: false})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.Write(h, 0, make([]byte, 512))
	if !errors.Is(err, client.ErrDenied) {
		t.Fatalf("write on read-only tenant: %v, want ErrDenied", err)
	}
	if _, err := cl.Read(h, 0, 512); err != nil {
		t.Fatalf("read on read-only tenant failed: %v", err)
	}
}

func TestNamespaceACL(t *testing.T) {
	_, cl := startServer(t, nil)
	// Namespace: LBAs [100, 200).
	h, err := cl.Register(protocol.Registration{
		BestEffort: true, Writable: true, FirstLBA: 100, LBACount: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(h, 100, make([]byte, 512)); err != nil {
		t.Fatalf("in-range write failed: %v", err)
	}
	if err := cl.Write(h, 99, make([]byte, 512)); !errors.Is(err, client.ErrDenied) {
		t.Fatalf("below-range write: %v, want ErrDenied", err)
	}
	// Crossing the upper boundary: starts inside, ends outside.
	if err := cl.Write(h, 199, make([]byte, 1024)); !errors.Is(err, client.ErrDenied) {
		t.Fatalf("boundary-crossing write: %v, want ErrDenied", err)
	}
	if _, err := cl.Read(h, 500, 512); !errors.Is(err, client.ErrDenied) {
		t.Fatalf("out-of-range read: %v, want ErrDenied", err)
	}
}

func TestOutOfDeviceBounds(t *testing.T) {
	_, cl := startServer(t, nil)
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	// Device is 64 MiB = 131072 LBAs.
	if _, err := cl.Read(h, 1<<28, 512); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("far out-of-bounds read: %v, want ErrBadRequest", err)
	}
}

func TestUnknownHandle(t *testing.T) {
	_, cl := startServer(t, nil)
	if _, err := cl.Read(9999, 0, 512); !errors.Is(err, client.ErrNoTenant) {
		t.Fatalf("unknown handle: %v, want ErrNoTenant", err)
	}
}

func TestUnregister(t *testing.T) {
	_, cl := startServer(t, nil)
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Unregister(h); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(h, 0, 512); !errors.Is(err, client.ErrNoTenant) {
		t.Fatalf("read after unregister: %v, want ErrNoTenant", err)
	}
	if err := cl.Unregister(h); !errors.Is(err, client.ErrNoTenant) {
		t.Fatalf("double unregister: %v, want ErrNoTenant", err)
	}
}

func TestLCAdmissionControl(t *testing.T) {
	// TokenRate 280K tokens/s fits exactly one 100K IOPS @ 80% read tenant.
	_, cl := startServer(t, func(c *Config) {
		c.TokenRate = 280_000 * core.TokenUnit
	})
	lc := protocol.Registration{
		ReadPercent: 80, IOPS: 100_000, LatencyP95: 500_000, Writable: true,
	}
	if _, err := cl.Register(lc); err != nil {
		t.Fatalf("first LC tenant rejected: %v", err)
	}
	if _, err := cl.Register(lc); !errors.Is(err, client.ErrNoCapacity) {
		t.Fatalf("oversubscribed LC tenant: %v, want ErrNoCapacity", err)
	}
	// Releasing the first admits the second.
	h3, err := cl.Register(protocol.Registration{
		ReadPercent: 100, IOPS: 10_000, LatencyP95: 500_000,
	})
	if err == nil {
		_ = cl.Unregister(h3)
	}
}

func TestLCBadSLORejected(t *testing.T) {
	_, cl := startServer(t, nil)
	if _, err := cl.Register(protocol.Registration{IOPS: 0, LatencyP95: 1}); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("zero-IOPS LC: %v, want ErrBadRequest", err)
	}
}

func TestBadNamespaceRejected(t *testing.T) {
	_, cl := startServer(t, nil)
	_, err := cl.Register(protocol.Registration{
		BestEffort: true, FirstLBA: 1 << 30 / protocol.BlockSize, LBACount: 1 << 20,
	})
	if !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("namespace beyond device: %v, want ErrBadRequest", err)
	}
}

func TestBERateLimiting(t *testing.T) {
	// A BE tenant on a 10K tokens/s server: writes cost 10 tokens, so the
	// server sustains ~1000 writes/s. 300 writes must take ~300ms.
	_, cl := startServer(t, func(c *Config) {
		c.TokenRate = 10_000 * core.TokenUnit
	})
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var calls []*client.Call
	data := make([]byte, 4096)
	for i := 0; i < 300; i++ {
		call, err := cl.GoWrite(h, uint32(i*8), data)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call)
	}
	for _, c := range calls {
		<-c.Done
		if c.Err != nil {
			t.Fatal(c.Err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 200*time.Millisecond {
		t.Errorf("300 writes at 1000 writes/s finished in %v, want >= ~300ms (rate limiting)", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Errorf("writes took %v, scheduler far too slow", elapsed)
	}
}

func TestReadsFasterThanTokenLimitedWrites(t *testing.T) {
	// On the same throttled server, 300 reads (1 token each) are ~10x
	// faster than 300 writes (10 tokens each).
	_, cl := startServer(t, func(c *Config) {
		c.TokenRate = 10_000 * core.TokenUnit
	})
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	run := func(write bool) time.Duration {
		start := time.Now()
		var calls []*client.Call
		for i := 0; i < 300; i++ {
			var call *client.Call
			var err error
			if write {
				call, err = cl.GoWrite(h, uint32(i*8), make([]byte, 4096))
			} else {
				call, err = cl.GoRead(h, uint32(i*8), 4096)
			}
			if err != nil {
				t.Fatal(err)
			}
			calls = append(calls, call)
		}
		for _, c := range calls {
			<-c.Done
		}
		return time.Since(start)
	}
	reads := run(false)
	writes := run(true)
	if writes < 3*reads {
		t.Errorf("writes (%v) not much slower than reads (%v) under token limits", writes, reads)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := startServer(t, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := client.Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			h, err := cl.Register(beWritable())
			if err != nil {
				errs <- err
				return
			}
			base := uint32(i * 10000)
			for rep := 0; rep < 20; rep++ {
				data := bytes.Repeat([]byte{byte(i + rep)}, 4096)
				if err := cl.Write(h, base+uint32(rep*8), data); err != nil {
					errs <- err
					return
				}
				got, err := cl.Read(h, base+uint32(rep*8), 4096)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- errors.New("data corruption under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestManyAsyncInFlight(t *testing.T) {
	_, cl := startServer(t, nil)
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(h, 0, bytes.Repeat([]byte{0x42}, 4096)); err != nil {
		t.Fatal(err)
	}
	var calls []*client.Call
	for i := 0; i < 512; i++ {
		call, err := cl.GoRead(h, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call)
	}
	for i, c := range calls {
		<-c.Done
		if c.Err != nil {
			t.Fatalf("call %d: %v", i, c.Err)
		}
		if len(c.Data) != 4096 || c.Data[0] != 0x42 {
			t.Fatalf("call %d returned wrong data", i)
		}
	}
}

func TestSimulatedDeviceLatency(t *testing.T) {
	_, cl := startServer(t, func(c *Config) {
		c.ReadLatency = 20 * time.Millisecond
	})
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := cl.Read(h, 0, 512); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Errorf("read with 20ms simulated latency returned in %v", el)
	}
}

func TestClientOpsAfterClose(t *testing.T) {
	_, cl := startServer(t, nil)
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	time.Sleep(20 * time.Millisecond) // let readLoop observe the close
	if _, err := cl.Read(h, 0, 512); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("read after close: %v, want ErrClosed", err)
	}
}

func TestClientInputValidation(t *testing.T) {
	_, cl := startServer(t, nil)
	h, _ := cl.Register(beWritable())
	if _, err := cl.GoRead(h, 0, 0); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("zero-length read: %v", err)
	}
	if _, err := cl.GoWrite(h, 0, nil); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("empty write: %v", err)
	}
	if _, err := cl.GoRead(h, 0, protocol.MaxPayload+1); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("oversize read: %v", err)
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := New(Config{Addr: "127.0.0.1:0", Cores: 100, Model: modelA(), TokenRate: 1}, storage.NewMem(1024)); err == nil {
		t.Error("100 threads accepted")
	}
	if _, err := New(Config{Addr: "127.0.0.1:0", Model: modelA()}, storage.NewMem(1024)); err == nil {
		t.Error("zero token rate accepted")
	}
	if _, err := New(Config{Addr: "127.0.0.1:0", TokenRate: 1}, storage.NewMem(1024)); err == nil {
		t.Error("zero model accepted")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t, nil)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsOp(t *testing.T) {
	_, cl := startServer(t, nil)
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := cl.Write(h, uint32(i*8), make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := cl.Read(h, uint32(i*8), 4096); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Stats(h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Enqueued != 75 || st.Submitted != 75 {
		t.Fatalf("stats = %+v, want 75 enqueued/submitted", st)
	}
	// 25 writes x 10 tokens + 50 reads x >= 0.5 token.
	if st.SubmittedTokens < 275_000-1000 {
		t.Fatalf("submitted tokens = %d, want >= ~275000 mt", st.SubmittedTokens)
	}
	if st.QueueLen != 0 {
		t.Fatalf("queue len = %d after quiescence", st.QueueLen)
	}
	if _, err := cl.Stats(9999); !errors.Is(err, client.ErrNoTenant) {
		t.Fatalf("stats on unknown tenant: %v", err)
	}
}

func TestGarbageOnTCPPortIgnored(t *testing.T) {
	srv, cl := startServer(t, nil)
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	// A rogue connection sends garbage; the server drops it and keeps
	// serving everyone else.
	rogue, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	rogue.Write([]byte("GET / HTTP/1.1\r\nHost: flash\r\n\r\n"))
	rogue.Close()
	if _, err := cl.Read(h, 0, 512); err != nil {
		t.Fatalf("server unusable after garbage connection: %v", err)
	}
}

func TestAbruptClientDisconnectWithInflight(t *testing.T) {
	srv, _ := startServer(t, func(c *Config) {
		c.WriteLatency = 30 * time.Millisecond
	})
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	// Leave 20 slow writes in flight and slam the connection shut.
	for i := 0; i < 20; i++ {
		if _, err := cl.GoWrite(h, uint32(i*8), make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	time.Sleep(60 * time.Millisecond) // in-flight completions hit a dead conn
	// The server is still healthy for new clients.
	cl2, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	h2, err := cl2.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.Read(h2, 0, 512); err != nil {
		t.Fatalf("server unhealthy after abrupt disconnect: %v", err)
	}
}

func TestCloseDuringTraffic(t *testing.T) {
	srv, err := New(Config{
		Addr:      "127.0.0.1:0",
		Cores:     2,
		Model:     modelA(),
		TokenRate: 1_000_000 * core.TokenUnit,
	}, storage.NewMem(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			call, err := cl.GoRead(h, 0, 4096)
			if err != nil {
				return
			}
			<-call.Done
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil { // must not deadlock or panic
		t.Fatal(err)
	}
	close(stop)
}

// failingBackend errors on every access, to exercise device-error paths.
type failingBackend struct{ size int64 }

func (f failingBackend) ReadAt(p []byte, off int64) (int, error) {
	return 0, errors.New("media error")
}
func (f failingBackend) WriteAt(p []byte, off int64) (int, error) {
	return 0, errors.New("media error")
}
func (f failingBackend) Size() int64  { return f.size }
func (f failingBackend) Close() error { return nil }

func TestBackendErrorsSurfaceAsDeviceError(t *testing.T) {
	srv, err := New(Config{
		Addr: "127.0.0.1:0", Cores: 1, Model: modelA(),
		TokenRate: 1_000_000 * core.TokenUnit,
	}, failingBackend{size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(h, 0, 512); !errors.Is(err, client.ErrDevice) {
		t.Fatalf("read on failing media: %v, want ErrDevice", err)
	}
	if err := cl.Write(h, 0, make([]byte, 512)); !errors.Is(err, client.ErrDevice) {
		t.Fatalf("write on failing media: %v, want ErrDevice", err)
	}
}
