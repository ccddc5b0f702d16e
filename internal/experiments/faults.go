package experiments

import (
	"fmt"
	"time"

	"github.com/reflex-go/reflex/internal/faults"
	"github.com/reflex-go/reflex/internal/sim"
)

// ExtFaults is the fault-injection extension experiment: the simulated
// ReFlex rig runs an LC tenant at its SLO rate next to a saturating BE
// tenant while message faults (loss, duplication, delay — netsim) and
// device faults (per-request errors and timeout pulses — flashsim) are
// injected at increasing rates from one seeded injector.
//
// The claim under test: faults degrade throughput proportionally to the
// loss rate but do not break QoS isolation — the LC tenant's p95 for the
// requests that do complete stays near its SLO, because the scheduler's
// token accounting is per-admitted-request and unaffected by losses
// elsewhere.
func ExtFaults(scale Scale) *Table {
	t := &Table{
		ID:    "ext-faults",
		Title: "Fault injection: QoS isolation under message loss and device errors",
		Columns: []string{
			"profile", "msg_fault_prob", "dev_err_prob", "faults_injected",
			"dev_errors", "dev_stalls", "lc_p95_us", "lc_IOPS", "be_IOPS",
		},
		Notes: "LC p95 holds near its SLO as fault rates rise; losses cost completions, not isolation",
	}
	warm := scale.dur(20 * sim.Millisecond)
	dur := scale.dur(200 * sim.Millisecond)

	profiles := []struct {
		name string
		msg  float64 // message loss/dup probability (delay runs at 5x)
		dev  float64 // device error probability (stalls run at half)
	}{
		{"none", 0, 0},
		{"light", 0.001, 0.002},
		{"moderate", 0.005, 0.01},
		{"heavy", 0.02, 0.05},
	}

	t.addSweep(len(profiles), func(i int, rows *Table) {
		p := profiles[i]
		r := newRig(7)
		inj := faults.New(faults.Config{
			Seed:            7,
			MsgLossProb:     p.msg,
			MsgDupProb:      p.msg,
			MsgDelayProb:    p.msg * 5,
			MsgDelayMax:     200 * sim.Microsecond,
			DeviceErrProb:   p.dev,
			DeviceStallProb: p.dev / 2,
			DeviceStallDur:  200 * time.Microsecond,
		})
		r.net.SetFaults(inj)
		r.dev.SetFaults(inj)

		srv := r.reflexServer(2, deviceTokenRate(sim.Millisecond))
		lc := lcTenant(srv, 1, 50_000, 100, sim.Millisecond)
		be := beTenant(srv, 2)
		lcConn := srv.Connect(r.ixClient(11), lc)
		beConn := srv.Connect(r.ixClient(12), be)

		lcRes := r.pacedLoop(lcConn, 50_000, 100, 4096, warm, dur, 21)
		beRes := r.openLoop(beConn, 150_000, 100, 4096, warm, dur, 22)
		r.finish()

		st := r.dev.Stats()
		rows.Add(p.name,
			fmt.Sprintf("%.3f", p.msg), fmt.Sprintf("%.3f", p.dev),
			inj.Injected(), st.Errors, st.Stalls,
			us(lcRes.ReadLat.Quantile(0.95)), k(lcRes.IOPS()), k(beRes.IOPS()))
	})
	return t
}
