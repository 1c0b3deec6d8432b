// pandad runs the Panda service daemon: a resident pool of I/O nodes
// with a persistent array catalog, serving dynamically attaching client
// sessions over TCP — the one way to stand Panda up across processes
// (the paper's "network of ordinary workstations"). Clients and extra
// I/O nodes come and go while the daemon keeps running.
//
//	pandad -addr 127.0.0.1:7800 -dir /data/panda -slots 8 -ions 2 -max-ions 4 &
//	pandad -connect 127.0.0.1:7800 -smoke write -array X -nodes 2
//	pandad -connect 127.0.0.1:7800 -smoke read  -array X -nodes 2
//	pandad -join 127.0.0.1:7800 -dir /data/extra &   # one more I/O node, from any machine
//	kill -HUP  $DAEMON_PID   # re-read -config, apply tuning live
//	kill -USR1 $DAEMON_PID   # dump the flight recorder to the data dir
//	kill -TERM $DAEMON_PID   # graceful drain: finish in-flight, flush,
//	                         # commit, exit 0
//
// The -config file is JSON matching the Tuning knobs:
//
//	{"max_inflight": 4, "queue_depth": 16, "quantum": 1048576,
//	 "weights": {"viz": 1, "sim": 4}, "pipeline": 2,
//	 "slo_ms": {"viz": 50}, "slo_default_ms": 500}
//
// -http serves the telemetry plane (/metrics, /healthz, /readyz,
// /sessions, /slo, /dump, /status, /debug/pprof); cmd/pandastat is the
// matching CLI.
//
// It is read once at startup and again on every SIGHUP; in-flight
// operations finish under the tuning they started with, queued and
// future ones pick up the new knobs. The client modes (-connect) exist
// for smoke tests and operators: write fills an array with a seeded
// pattern, read verifies it bit-exact, info dumps the daemon's current
// tuning and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"panda"
)

func main() {
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	log.SetPrefix("pandad: ")

	addr := flag.String("addr", "127.0.0.1:7800", "daemon listen address (use port 0 with -addr-file for tests)")
	dir := flag.String("dir", "", "data+catalog directory; one subdir per i/o node (empty = in-memory, nothing survives exit)")
	slots := flag.Int("slots", 8, "aggregate client ranks available to attached sessions")
	ions := flag.Int("ions", 2, "number of i/o nodes")
	maxIons := flag.Int("max-ions", 0, "i/o node pool capacity, counting runtime joiners (0 = -ions; fixed for the daemon's lifetime)")
	lease := flag.Duration("lease", 0, "joined i/o node lease TTL; a node that keeps its connections open but misses heartbeats this long is declared lost (0 = 10s)")
	heartbeat := flag.Duration("heartbeat", 0, "joiner heartbeat / lease-watchdog cadence (0 = lease/4)")
	opTimeout := flag.Duration("optimeout", 30*time.Second, "per-operation deadline (0 = block forever)")
	configPath := flag.String("config", "", "JSON tuning file, read at startup and on SIGHUP")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	httpAddr := flag.String("http", "", "serve the telemetry plane on this address (e.g. 127.0.0.1:7801)")
	httpAddrFile := flag.String("http-addr-file", "", "write the bound telemetry address to this file once listening")

	connect := flag.String("connect", "", "client mode: attach to the daemon at this address instead of serving")
	smoke := flag.String("smoke", "", "client mode operation: write, read or info")
	arrayName := flag.String("array", "smoke", "client mode array name")
	nodes := flag.Int("nodes", 2, "client mode session size (must match the array's memory chunking)")
	tenant := flag.String("tenant", "", "client mode scheduler tenant")
	seed := flag.Int64("seed", 42, "client mode data pattern seed (write and read must agree)")
	joinAddr := flag.String("join", "", "join the daemon at this address as one more i/o node instead of serving (elastic pool; -dir names the node's storage)")
	flag.Parse()

	if *joinAddr != "" {
		runJoiner(*joinAddr, *dir)
		return
	}
	if *connect != "" {
		if err := runClient(*connect, *smoke, *arrayName, *nodes, *tenant, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	tuning, err := readTuning(*configPath)
	if err != nil {
		log.Fatal(err)
	}
	d, err := panda.StartDaemon(panda.DaemonConfig{
		Addr:           *addr,
		Dir:            *dir,
		ClientSlots:    *slots,
		IONodes:        *ions,
		MaxIONodes:     *maxIons,
		LeaseTTL:       *lease,
		HeartbeatEvery: *heartbeat,
		OpTimeout:      *opTimeout,
		Tuning:         tuning,
		HTTPAddr:       *httpAddr,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The resolved configuration goes out as one structured line — the
	// same shape as the startup event in the data dir's events.jsonl —
	// so scripts parse it instead of scraping prose.
	if startup, err := json.Marshal(d.StartupInfo()); err == nil {
		log.Printf("startup %s", startup)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(d.Addr()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if *httpAddrFile != "" {
		if err := os.WriteFile(*httpAddrFile, []byte(d.HTTPAddr()), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	sigs := make(chan os.Signal, 4)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGUSR1, syscall.SIGINT, syscall.SIGTERM)
	for sig := range sigs {
		switch sig {
		case syscall.SIGHUP:
			t, err := readTuning(*configPath)
			if err != nil {
				log.Printf("reload skipped: %v", err)
				continue
			}
			if err := d.Reload(t); err != nil {
				log.Printf("reload refused, tuning unchanged: %v", err)
			}
			continue
		case syscall.SIGUSR1:
			if _, err := d.DumpTrace("sigusr1"); err != nil {
				log.Printf("dump skipped: %v", err)
			}
			continue
		}
		log.Printf("%v: draining", sig)
		if err := d.Drain(); err != nil {
			log.Fatalf("drain: %v", err)
		}
		log.Printf("drained; all epochs committed")
		return
	}
}

// runJoiner attaches this process to a running daemon as an elastic
// I/O node: it serves collectives until the operator drains the slot
// out (pandastat drain-server) — a clean exit — or the process is
// signalled, which severs the node: its control connection ends, and
// the daemon declares the slot lost.
func runJoiner(addr, dir string) {
	n, err := panda.JoinIONode(panda.IONodeConfig{Addr: addr, Dir: dir, Logf: log.Printf})
	if err != nil {
		log.Fatalf("join %s: %v", addr, err)
	}
	fmt.Printf("i/o node: joined %s as pool slot %d\n", addr, n.Slot())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("i/o node: signalled; severing (the daemon declares the slot lost)")
		n.Kill()
	}()
	if err := n.Wait(); err != nil {
		log.Fatalf("joined node exited: %v", err)
	}
	fmt.Printf("i/o node: slot %d drained; exiting\n", n.Slot())
}

// readTuning parses the -config JSON; an empty path means defaults.
func readTuning(path string) (panda.Tuning, error) {
	var t panda.Tuning
	if path == "" {
		return t, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return t, fmt.Errorf("tuning config: %w", err)
	}
	if err := json.Unmarshal(b, &t); err != nil {
		return t, fmt.Errorf("tuning config %s: %w", path, err)
	}
	return t, nil
}

// runClient is the smoke-test client: one session, one operation.
func runClient(addr, op, name string, nodes int, tenant string, seed int64) error {
	s, err := panda.Dial(panda.SessionConfig{Addr: addr, Nodes: nodes, Tenant: tenant})
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer s.Close() //nolint:errcheck

	switch op {
	case "write":
		a, err := smokeArray(name, nodes)
		if err != nil {
			return err
		}
		if err := s.Create(a); err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
		err = s.Run(func(n *panda.Node) error {
			buf := make([]byte, n.ChunkBytes(a))
			fillPattern(buf, seed+int64(n.Rank()))
			if err := n.Bind(a, buf); err != nil {
				return err
			}
			return n.WriteArray(a)
		})
		if err != nil {
			return fmt.Errorf("write %s: %w", name, err)
		}
		fmt.Printf("wrote %s (%d nodes, seed %d)\n", name, nodes, seed)

	case "read":
		a, err := s.Open(name)
		if err != nil {
			return fmt.Errorf("open %s: %w", name, err)
		}
		err = s.Run(func(n *panda.Node) error {
			buf := make([]byte, n.ChunkBytes(a))
			if err := n.Bind(a, buf); err != nil {
				return err
			}
			if err := n.ReadArray(a); err != nil {
				return err
			}
			want := make([]byte, len(buf))
			fillPattern(want, seed+int64(n.Rank()))
			for i := range buf {
				if buf[i] != want[i] {
					return fmt.Errorf("node %d: byte %d differs (got %#x want %#x)", n.Rank(), i, buf[i], want[i])
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("read %s: %w", name, err)
		}
		fmt.Printf("read %s back bit-exact (%d nodes, seed %d)\n", name, nodes, seed)

	case "info":
		info, err := s.Info()
		if err != nil {
			return err
		}
		out, err := json.MarshalIndent(info, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))

	default:
		return fmt.Errorf("-smoke must be write, read or info (got %q)", op)
	}
	return nil
}

// smokeArray declares the smoke array: nodes memory chunks by rows,
// two disk chunks, 4-byte elements. Write and read must agree on
// -nodes for the schema fingerprints to match.
func smokeArray(name string, nodes int) (*panda.Array, error) {
	return panda.NewArray(name, []int{nodes * 16, 8}, 4,
		panda.NewLayout("mem", []int{nodes}), []panda.Distribution{panda.BLOCK, panda.NONE},
		panda.NewLayout("disk", []int{2}), []panda.Distribution{panda.BLOCK, panda.NONE})
}

// fillPattern fills buf with a deterministic pseudo-random pattern so
// a later process can re-derive and verify it.
func fillPattern(buf []byte, seed int64) {
	rand.New(rand.NewSource(seed)).Read(buf)
}
