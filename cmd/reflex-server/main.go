// Command reflex-server runs the real TCP ReFlex server over an in-memory
// or file-backed flash store. Clients connect with the user-level library
// (internal/client, exercised by cmd/reflex-cli and the examples).
//
// Example:
//
//	reflex-server -addr :7700 -size 1GiB -cores 4 -token-rate 420000
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/reflex-go/reflex/internal/cluster"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/ctrl"
	"github.com/reflex-go/reflex/internal/ctrlplane"
	"github.com/reflex-go/reflex/internal/faults"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/server"
	"github.com/reflex-go/reflex/internal/shard"
	"github.com/reflex-go/reflex/internal/storage"
)

// parseSize parses "64MiB"/"1GiB"/"4096" into bytes.
func parseSize(s string) (int64, error) {
	mult := int64(1)
	upper := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(upper, "GIB"):
		mult, upper = 1<<30, strings.TrimSuffix(upper, "GIB")
	case strings.HasSuffix(upper, "MIB"):
		mult, upper = 1<<20, strings.TrimSuffix(upper, "MIB")
	case strings.HasSuffix(upper, "KIB"):
		mult, upper = 1<<10, strings.TrimSuffix(upper, "KIB")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	return n * mult, nil
}

// parseDataNodes parses "name=addr,name=addr" into the coordinator's
// data-plane node set.
func parseDataNodes(s string) ([]shard.Node, error) {
	var nodes []shard.Node
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, addr, ok := strings.Cut(pair, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad node entry %q (want name=addr)", pair)
		}
		nodes = append(nodes, shard.Node{Name: name, Addrs: []string{addr}})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("no data nodes")
	}
	return nodes, nil
}

// parseFleet parses "name=url,name=url" into scrape targets.
func parseFleet(s string) ([]obs.FleetNode, error) {
	var nodes []obs.FleetNode
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, url, ok := strings.Cut(pair, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad fleet entry %q (want name=url)", pair)
		}
		nodes = append(nodes, obs.FleetNode{Name: name, URL: url})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("no fleet entries")
	}
	return nodes, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "TCP listen address")
	udpAddr := flag.String("udp", "", "optional UDP listen address (e.g. :7701)")
	size := flag.String("size", "256MiB", "device size (e.g. 64MiB, 1GiB)")
	file := flag.String("file", "", "optional backing file (default: in-memory)")
	cores := flag.Int("cores", 2, "shared-nothing event-loop cores")
	tokenRate := flag.Int64("token-rate", 420_000, "token rate (tokens/s) at the strictest SLO")
	writeCost := flag.Int64("write-cost", 10, "write cost in tokens (device calibration)")
	readLat := flag.Duration("read-latency", 0, "simulated device read latency (demos)")
	writeLat := flag.Duration("write-latency", 0, "simulated device write latency (demos)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP telemetry address serving /metrics (Prometheus), /snapshot, /slow, /traces, /debug/vars, /debug/pprof (e.g. :9090)")
	sampleEvery := flag.Duration("sample-interval", time.Second, "SLO time-series sampling period")
	sampleCSV := flag.String("sample-csv", "", "write the sampled time series to this CSV file on shutdown")
	chaos := flag.Bool("chaos", false, "inject faults on every accepted connection and on the device path (soak testing)")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-injection PRNG seed (reproducible chaos runs)")
	volumes := flag.String("volumes", "", "reserve this much of the device for thin-provisioned volumes (e.g. 64MiB; empty = volume layer off; manage with reflex-cli vol)")
	volExtent := flag.Int("volume-extent", 0, "volume extent size in 512B blocks (0 = default 128 = 64KiB)")
	cacheMB := flag.Int64("cache-mb", 0, "DRAM read-cache size in MiB (0 = no cache)")
	cacheAdmit := flag.String("cache-admit", "cost", "read-cache admission policy: cost (cost-model hurdle) or always")
	idleTimeout := flag.Duration("idle-timeout", 0, "reap connections idle longer than this (0 = default 2m, negative = never)")
	connLimit := flag.Int("conn-limit", 0, "shed best-effort work while connections exceed this (0 = unlimited)")
	backupOf := flag.String("backup-of", "", "run as replication backup of the primary at this address (refuses client writes until promoted)")
	epoch := flag.Uint("epoch", 0, "initial cluster epoch (0 = standalone; replicated pairs start at 1)")
	nodeName := flag.String("node-name", "", "cluster node name (enables shard-map enforcement and names this node's trace spans)")
	fleet := flag.String("fleet", "", "comma-separated name=snapshot-URL pairs to aggregate at /cluster (e.g. node0=http://10.0.0.1:9090/snapshot,node1=...)")
	coordinator := flag.String("coordinator", "", "run a control-plane replica listening on this address (elects a leader among -ctrl-peers; the leader drives the shard map)")
	ctrlPeers := flag.String("ctrl-peers", "", "comma-separated control-plane replica set, including -coordinator (default: just this replica)")
	ctrlNodes := flag.String("ctrl-nodes", "", "comma-separated name=addr data-plane nodes the coordinator places shards on (required with -coordinator)")
	ctrlShards := flag.Int("ctrl-shards", 16, "shard count for the coordinator's placement map")
	ctrlShardBlocks := flag.Int64("ctrl-shard-blocks", 4096, "blocks per shard in the placement map")
	ctrlLease := flag.Duration("ctrl-lease", time.Second, "control-plane leader lease TTL (elections re-run within ~2x this on leader death)")
	flag.Parse()

	bytes, err := parseSize(*size)
	if err != nil {
		log.Fatal(err)
	}
	var backend storage.Backend
	if *file != "" {
		backend, err = storage.OpenFile(*file, bytes)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		backend = storage.NewMem(bytes)
	}

	var volBytes int64
	if *volumes != "" {
		if volBytes, err = parseSize(*volumes); err != nil {
			log.Fatalf("-volumes: %v", err)
		}
	}

	var inj *faults.Injector
	if *chaos {
		inj = faults.New(faults.Chaos(*chaosSeed))
	}
	srv, err := server.New(server.Config{
		Addr:       *addr,
		UDPAddr:    *udpAddr,
		Cores:      *cores,
		Epoch:      uint16(*epoch),
		BackupRole: *backupOf != "",
		NodeName:   *nodeName,
		Model: core.CostModel{
			ReadCost:         core.TokenUnit,
			ReadOnlyReadCost: core.TokenUnit / 2,
			WriteCost:        core.Tokens(*writeCost) * core.TokenUnit,
		},
		TokenRate:          core.Tokens(*tokenRate) * core.TokenUnit,
		ReadLatency:        *readLat,
		WriteLatency:       *writeLat,
		ReadOnlyWindow:     10 * time.Millisecond,
		IdleTimeout:        *idleTimeout,
		CacheBytes:         *cacheMB << 20,
		CacheAdmit:         *cacheAdmit,
		VolumeBytes:        volBytes,
		VolumeExtentBlocks: *volExtent,
		Faults:             inj,
		Shed:               ctrl.ShedConfig{ConnLimit: *connLimit},
	}, backend)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("reflex-server listening on %s (%s device, %d cores, %d tokens/s)",
		srv.Addr(), *size, srv.Cores(), *tokenRate)
	if volBytes > 0 {
		log.Printf("volume layer: %s thin pool (reflex-cli vol create/snap/clone/diff)", *volumes)
	}

	// Replicated-pair wiring: as a backup, join the primary and apply its
	// replication stream until a failing-over client promotes us; the
	// promotion hook stops the join loop so we don't re-join the deposed
	// primary at a stale epoch.
	if *backupOf != "" {
		bk := cluster.StartBackup(*backupOf, srv, cluster.BackupOptions{Logf: log.Printf})
		srv.SetOnPromote(func(e uint16) {
			log.Printf("cluster: promoted to primary at epoch %d", e)
			go bk.Stop()
		})
		defer bk.Stop()
		log.Printf("cluster: backup of %s (epoch %d)", *backupOf, srv.ClusterEpoch())
	}
	// Control-plane replica: quorum-elected coordinator with a replicated
	// map-edit log. The leader seeds/owns the shard map for -ctrl-nodes;
	// followers stay hot and re-drive any in-flight migration on failover.
	if *coordinator != "" {
		dataNodes, err := parseDataNodes(*ctrlNodes)
		if err != nil {
			log.Fatalf("-ctrl-nodes: %v", err)
		}
		if *ctrlShardBlocks <= 0 || *ctrlShardBlocks > math.MaxUint32 {
			log.Fatalf("-ctrl-shard-blocks: %d out of range (1..%d)", *ctrlShardBlocks, uint32(math.MaxUint32))
		}
		peers := []string{*coordinator}
		if *ctrlPeers != "" {
			peers = peers[:0]
			for _, p := range strings.Split(*ctrlPeers, ",") {
				if p = strings.TrimSpace(p); p != "" {
					peers = append(peers, p)
				}
			}
		}
		rep, err := ctrlplane.NewReplica(ctrlplane.ReplicaConfig{
			Ctrl: ctrlplane.Config{
				Self:     *coordinator,
				Peers:    peers,
				LeaseTTL: *ctrlLease,
				Journal:  srv.EventJournal(),
				Reg:      srv.Metrics(),
				Logf:     log.Printf,
			},
			Coord: shard.CoordinatorConfig{
				Nodes:       dataNodes,
				NumShards:   *ctrlShards,
				ShardBlocks: uint32(*ctrlShardBlocks),
				AutoHeal:    true,
				Journal:     srv.EventJournal(),
				Logf:        log.Printf,
			},
		})
		if err != nil {
			log.Fatalf("control plane: %v", err)
		}
		if err := rep.Start(); err != nil {
			log.Fatalf("control plane: %v", err)
		}
		defer rep.Stop()
		log.Printf("control plane: replica %s of %v (lease %v, %d shards over %d nodes)",
			*coordinator, peers, *ctrlLease, *ctrlShards, len(dataNodes))
	}
	if inj != nil {
		log.Printf("chaos mode: fault injection armed (seed %d)", *chaosSeed)
	}
	if u := srv.UDPAddr(); u != "" {
		log.Printf("udp endpoint on %s", u)
	}

	// Live exposition: Prometheus text format, JSON snapshots, the top-K
	// slow-request log, expvar and pprof.
	if *metricsAddr != "" {
		obs.PublishExpvar("reflex", srv.Metrics())
		cfg := obs.MuxConfig{
			Reg:     srv.Metrics(),
			Ring:    srv.TraceRing(),
			Journal: srv.EventJournal(),
		}
		if *fleet != "" {
			nodes, err := parseFleet(*fleet)
			if err != nil {
				log.Fatalf("-fleet: %v", err)
			}
			cfg.Cluster = obs.NewFleet(nodes).Handler()
		}
		ms, err := obs.ServeWith(*metricsAddr, cfg)
		if err != nil {
			log.Fatalf("metrics endpoint: %v", err)
		}
		defer ms.Close()
		extra := "/snapshot /slow /traces /events /debug/pprof"
		if cfg.Cluster != nil {
			extra += " /cluster"
		}
		log.Printf("telemetry on http://%s/metrics (also %s)", ms.Addr(), extra)
	}

	// SLO time-series sampler (per-op interval p95, IOPS, queue depths,
	// token-bucket levels), dumped as CSV on shutdown when requested.
	series, stopSampler := srv.StartSampler(*sampleEvery)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	stopSampler()
	if *sampleCSV != "" {
		if f, err := os.Create(*sampleCSV); err != nil {
			log.Printf("sample csv: %v", err)
		} else {
			if err := series.WriteCSV(f); err != nil {
				log.Printf("sample csv: %v", err)
			}
			f.Close()
			log.Printf("wrote %d samples to %s", series.Len(), *sampleCSV)
		}
	}

	// Final metrics snapshot: one last look at the counters and latency
	// summaries, plus the slow-request breakdowns.
	fmt.Fprintln(os.Stderr, "=== final metrics snapshot ===")
	srv.Metrics().WritePrometheus(os.Stderr)
	if slow := srv.TraceRing().Slowest(); len(slow) > 0 {
		fmt.Fprintln(os.Stderr, "=== slow-request log (top-K by total latency) ===")
		srv.TraceRing().WriteSlowLog(os.Stderr)
	}

	srv.Close()
	backend.Close()
}
