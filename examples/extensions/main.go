// Extensions: the capabilities the paper lists as future work, working
// end-to-end on the real server — multi-device serving, ordering barriers,
// the UDP transport, and tenant stats introspection.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/server"
	"github.com/reflex-go/reflex/internal/storage"
)

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	// A server fronting two devices: a fast NVMe-like device and a
	// slower, write-expensive one — each with its own scheduler instance
	// and token rate (§3.2.2).
	srv, err := server.NewMulti(server.Config{
		Addr:         "127.0.0.1:0",
		UDPAddr:      "127.0.0.1:0",
		Cores:        2,
		WriteLatency: 5 * time.Millisecond, // visible device latency for the barrier demo
	}, []server.DeviceConfig{
		{
			Backend: storage.NewMem(128 << 20),
			Model: core.CostModel{
				ReadCost: core.TokenUnit, ReadOnlyReadCost: core.TokenUnit / 2,
				WriteCost: 10 * core.TokenUnit,
			},
			TokenRate:      420_000 * core.TokenUnit,
			ReadOnlyWindow: 10 * time.Millisecond,
		},
		{
			Backend: storage.NewMem(32 << 20),
			Model: core.CostModel{
				ReadCost: core.TokenUnit, ReadOnlyReadCost: core.TokenUnit,
				WriteCost: 20 * core.TokenUnit,
			},
			TokenRate: 150_000 * core.TokenUnit,
		},
	})
	must(err)
	defer srv.Close()
	fmt.Printf("server: tcp %s / udp %s, %d devices\n", srv.Addr(), srv.UDPAddr(), srv.Devices())

	tcp, err := client.Dial(srv.Addr())
	must(err)
	defer tcp.Close()

	// --- multi-device: same LBA, two devices, two values ---
	h0, err := tcp.Register(protocol.Registration{BestEffort: true, Writable: true, Device: 0})
	must(err)
	h1, err := tcp.Register(protocol.Registration{BestEffort: true, Writable: true, Device: 1})
	must(err)
	blk := make([]byte, 512)
	copy(blk, "device zero data")
	must(tcp.Write(h0, 0, blk))
	copy(blk, "device one data!")
	must(tcp.Write(h1, 0, blk))
	g0, _ := tcp.Read(h0, 0, 16)
	g1, _ := tcp.Read(h1, 0, 16)
	fmt.Printf("multi-device: lba0 dev0=%q dev1=%q\n", g0, g1)

	// --- barriers: order a read behind a slow write ---
	payload := make([]byte, 512)
	copy(payload, "after the barrier")
	_, err = tcp.GoWrite(h0, 8, payload) // takes ~5ms at the "device"
	must(err)
	stale, _ := tcp.Read(h0, 8, 17) // overtakes the write
	must(tcp.Barrier(h0))           // waits for the write
	fresh, _ := tcp.Read(h0, 8, 17)
	fmt.Printf("barrier: unordered read saw %q, post-barrier read saw %q\n", stale, fresh)

	// --- UDP transport: same tenants, datagram framing ---
	udp, err := client.DialUDP(srv.UDPAddr())
	must(err)
	defer udp.Close()
	viaUDP, err := udp.Read(h0, 8, 17)
	must(err)
	fmt.Printf("udp: read over datagrams: %q\n", viaUDP)

	// --- stats: the accounting the control plane watches ---
	for i := 0; i < 200; i++ {
		must(tcp.Write(h1, uint32(16+i), make([]byte, 512)))
	}
	st, err := tcp.Stats(h1)
	must(err)
	fmt.Printf("stats dev1 tenant: %d ops admitted, %.0f tokens spent (writes cost 20x here)\n",
		st.Submitted, float64(st.SubmittedTokens)/1000)
}
