package dataplane

import (
	"testing"

	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/netsim"
	"github.com/reflex-go/reflex/internal/sim"
	"github.com/reflex-go/reflex/internal/workload"
)

func TestMoveTenantPreservesService(t *testing.T) {
	// A tenant moved mid-run keeps completing every request: no loss.
	r := newRig(t, 2, 1_200_000*core.TokenUnit)
	tn := beTenant(t, 1)
	r.srv.RegisterTenantOn(tn, 0)
	conn := r.srv.Connect(r.client(t, netsim.IXClientStack(), 1), tn)
	res := workload.OpenLoop{
		IOPS: 100_000, Mix: workload.Mix{ReadPercent: 100, Size: 4096, Blocks: 1 << 20},
		Warmup: 10 * sim.Millisecond, Duration: 100 * sim.Millisecond, Seed: 5,
	}.Start(r.eng, conn)
	moved := false
	r.eng.At(50*sim.Millisecond, func() {
		r.srv.MoveTenant(tn, 1)
		moved = true
	})
	r.eng.Run()
	if !moved {
		t.Fatal("move never ran")
	}
	if r.srv.threadOf(tn) != 1 {
		t.Fatal("tenant not on thread 1")
	}
	// ~100K IOPS delivered across the move, no cliff.
	if iops := res.IOPS(); iops < 95_000 {
		t.Fatalf("IOPS across move = %.0f, want ~100K (no loss)", iops)
	}
	// Post-move traffic runs on thread 1.
	if loads := r.srv.ThreadLoads(); loads[1] <= 0 {
		t.Fatal("destination thread did no work after the move")
	}
}

func TestMoveTenantCarriesQueueAndConns(t *testing.T) {
	r := newRig(t, 2, 600_000*core.TokenUnit)
	tn := beTenant(t, 1)
	r.srv.RegisterTenantOn(tn, 0)
	c1 := r.srv.Connect(r.client(t, netsim.IXClientStack(), 1), tn)
	c2 := r.srv.Connect(r.client(t, netsim.IXClientStack(), 2), tn)
	_ = c2
	done := 0
	r.eng.At(0, func() {
		// Queue work, then immediately move before it completes.
		for i := 0; i < 50; i++ {
			c1.Read(uint64(i), 4096, func(sim.Time) { done++ })
		}
	})
	r.eng.At(sim.Millisecond, func() {
		if got := r.srv.threads[0].conns; got != 2 {
			t.Errorf("thread 0 conns = %d before move, want 2", got)
		}
		r.srv.MoveTenant(tn, 1)
		if got := r.srv.threads[1].conns; got != 2 {
			t.Errorf("thread 1 conns = %d after move, want 2", got)
		}
		if got := r.srv.threads[0].conns; got != 0 {
			t.Errorf("thread 0 conns = %d after move, want 0", got)
		}
	})
	r.eng.Run()
	if done != 50 {
		t.Fatalf("completed %d of 50 requests across a move", done)
	}
}

func TestMoveTenantNoOpAndValidation(t *testing.T) {
	r := newRig(t, 2, 600_000*core.TokenUnit)
	tn := beTenant(t, 1)
	r.srv.RegisterTenantOn(tn, 1)
	r.eng.At(0, func() {
		r.srv.MoveTenant(tn, 1) // same thread: no-op
		if r.srv.threadOf(tn) != 1 {
			t.Error("no-op move changed placement")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range move did not panic")
				}
			}()
			r.srv.MoveTenant(tn, 5)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("moving unregistered tenant did not panic")
				}
			}()
			r.srv.MoveTenant(beTenant(t, 99), 0)
		}()
	})
	r.eng.Run()
}
