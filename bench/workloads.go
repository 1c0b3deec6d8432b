package main

import (
	"fmt"
	"path/filepath"
	"sync"

	"panda"
	"panda/internal/storage"
)

// workloadDef is one benchmark workload. Op counts are fixed, never
// time-boxed: a timestep costs more the more steps came before it, so a
// faster program must not be handed a longer history.
type workloadDef struct {
	name string
	why  string
	// opBytes is the user data one collective moves, and what the
	// reference op moves after it.
	opBytes int64
	warm    int // write+read pairs before timing (rounds, for two sessions)
	iters   int // timed iterations per child
	// twoSessions marks the workload whose two parties are two one-node
	// tenants, one writing while the other reads.
	twoSessions bool
	// liveBytes is the user data still readable after steps write ops.
	liveBytes func(writes int) int64
	// run brings the system up, runs c.partyMain on both nodes, shuts
	// down, and returns the I/O nodes' disks for the scrub.
	run func(c *child) ([]storage.Disk, error)
}

// opsPerStep is how many collectives one step attempts.
func (w *workloadDef) opsPerStep() int {
	if w.twoSessions {
		return 2
	}
	return 1
}

const mib = 1 << 20

var workloads = []*workloadDef{
	{
		name: "ckpt_natural",
		why: "16 MiB checkpoint/restart through the daemon with memory chunks equal to disk chunks (paper Fig. 3/4): " +
			"no pack runs, so hub transport, OSDisk and the 2PC commit set the time",
		opBytes: 16 * mib, warm: 2, iters: 9,
		liveBytes: func(int) int64 { return 16 * mib },
		run: func(c *child) ([]storage.Disk, error) {
			a, err := panda.NewArray("state", []int{2048, 1024}, 8,
				panda.NewLayout("mem", []int{2}), []panda.Distribution{panda.BLOCK, panda.NONE},
				panda.NewLayout("disk", []int{2}), []panda.Distribution{panda.BLOCK, panda.NONE})
			if err != nil {
				return nil, err
			}
			g := panda.NewGroup("ckpt")
			g.Include(a)
			return runDaemon(c, []*panda.Array{a}, func(n *panda.Node, _ *panda.Array) (write, read func() error) {
				return func() error { return n.Checkpoint(g) }, func() error { return n.Restart(g) }
			})
		},
	},
	{
		name: "timestep_1m",
		why: "1 MiB timesteps through the daemon: new files, manifest, decision record and control round trips every op, " +
			"so fixed per-op cost shows here and bulk data-path work barely does",
		opBytes: 1 * mib, warm: 10, iters: 90,
		liveBytes: func(writes int) int64 { return int64(writes) * mib },
		run: func(c *child) ([]storage.Disk, error) {
			a, err := panda.NewArray("field", []int{512, 256}, 8,
				panda.NewLayout("mem", []int{2}), []panda.Distribution{panda.BLOCK, panda.NONE},
				panda.NewLayout("disk", []int{2}), []panda.Distribution{panda.BLOCK, panda.NONE})
			if err != nil {
				return nil, err
			}
			g := panda.NewGroup("steps")
			g.Include(a)
			return runDaemon(c, []*panda.Array{a}, func(n *panda.Node, _ *panda.Array) (write, read func() error) {
				return func() error { return n.Timestep(g) },
					func() error { return n.ReadTimestep(g, n.TimestepCount(g)-1) }
			})
		},
	},
	{
		name: "inproc_reorg",
		why: "16 MiB in-process checkpoint/restart from *,*,BLOCK memory (16-byte runs) to BLOCK,*,* disk (paper Fig. 7-9): " +
			"pack, plan and engine do the work and no socket is in the path",
		opBytes: 16 * mib, warm: 2, iters: 10,
		liveBytes: func(int) int64 { return 16 * mib },
		run:       runInproc,
	},
	{
		name: "mixed_tenants",
		why: "two one-node tenants with an 8 MiB array each, one writing while the other reads, then the reverse: " +
			"a gain for one direction that costs the other, or one that serialises tenants, shows here",
		opBytes: 8 * mib, warm: 2, iters: 8, twoSessions: true,
		liveBytes: func(int) int64 { return 2 * 8 * mib },
		run: func(c *child) ([]storage.Disk, error) {
			var arrays []*panda.Array
			for _, tenant := range []string{"bulk", "peer"} {
				a, err := panda.NewArray(tenant, []int{1024, 1024}, 8,
					panda.NewLayout("mem", []int{1}), []panda.Distribution{panda.BLOCK, panda.NONE},
					panda.NewLayout("disk", []int{2}), []panda.Distribution{panda.BLOCK, panda.NONE})
				if err != nil {
					return nil, err
				}
				arrays = append(arrays, a)
			}
			return runDaemon(c, arrays, func(n *panda.Node, a *panda.Array) (write, read func() error) {
				return func() error { return n.WriteArray(a) }, func() error { return n.ReadArray(a) }
			})
		},
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ionDirs are the directories a two-I/O-node deployment keeps its files
// in under dir.
func ionDirs(dir string) []string {
	return []string{filepath.Join(dir, "ion0"), filepath.Join(dir, "ion1")}
}

// runDaemon measures through panda.StartDaemon on loopback and
// panda.Dial. One array means one session of two nodes; two arrays mean
// two one-node sessions, named after their arrays, run side by side.
// ops returns a node's write and read op on its session's array.
func runDaemon(c *child, arrays []*panda.Array,
	ops func(n *panda.Node, a *panda.Array) (write, read func() error)) ([]storage.Disk, error) {

	var d *panda.Daemon
	err := c.call("start_daemon", func() (err error) {
		d, err = panda.StartDaemon(panda.DaemonConfig{
			Dir: c.diskDir, ClientSlots: 2, IONodes: 2, OpTimeout: opTimeout, PullRetries: 2,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	drained := false
	defer func() {
		if !drained {
			d.Drain() //nolint:errcheck // already failing; the first error is the one reported
		}
	}()

	nodes := 2 / len(arrays)
	sessions := make([]*panda.Session, len(arrays))
	for i, a := range arrays {
		i, a := i, a
		err := c.call("dial", func() (err error) {
			sessions[i], err = panda.Dial(panda.SessionConfig{Addr: d.Addr(), Nodes: nodes, Tenant: a.Name()})
			return err
		})
		if err != nil {
			return nil, err
		}
		defer sessions[i].Close() //nolint:errcheck // a second Close is a no-op
		if err := c.call("create", func() error { return sessions[i].Create(a) }); err != nil {
			return nil, err
		}
		// The first Run dials the session's nodes into the rank mesh;
		// buffers bound in it stay bound for the measured Run.
		err = c.call("first_run", func() error {
			return sessions[i].Run(func(n *panda.Node) error {
				p := i*nodes + n.Rank()
				c.parties[p] = &party{session: i}
				c.parties[p].write, c.parties[p].read = ops(n, a)
				return c.bindParty(p, n, a)
			})
		})
		if err != nil {
			return nil, err
		}
	}
	c.info = func() (map[string]any, error) {
		info, err := sessions[0].Info()
		return info.Metrics, err
	}

	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *panda.Session) {
			defer wg.Done()
			errs[i] = s.Run(func(n *panda.Node) error { return c.partyMain(i*nodes + n.Rank()) })
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, s := range sessions {
		if err := c.call("close", s.Close); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
	}
	drained = true
	if err := c.call("drain", d.Drain); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	return osDisks(ionDirs(c.diskDir))
}

// runInproc measures panda.NewCluster over files with the in-process
// transport, every op inside one Run.
func runInproc(c *child) ([]storage.Disk, error) {
	a, err := panda.NewArray("grid", []int{512, 1024, 8}, 4,
		panda.NewLayout("mem", []int{2}), []panda.Distribution{panda.NONE, panda.NONE, panda.BLOCK},
		panda.NewLayout("disk", []int{2}), []panda.Distribution{panda.BLOCK, panda.NONE, panda.NONE})
	if err != nil {
		return nil, err
	}
	g := panda.NewGroup("ckpt")
	g.Include(a)
	var cl *panda.Cluster
	err = c.call("start_daemon", func() (err error) {
		cl, err = panda.NewCluster(panda.Config{ComputeNodes: 2, IONodes: 2, Dir: c.diskDir, OpTimeout: opTimeout})
		return err
	})
	if err != nil {
		return nil, err
	}
	err = cl.Run(func(n *panda.Node) error {
		p := n.Rank()
		c.parties[p] = &party{
			write: func() error { return n.Checkpoint(g) },
			read:  func() error { return n.Restart(g) },
		}
		if err := c.bindParty(p, n, a); err != nil {
			c.bar.abort()
			return err
		}
		return c.partyMain(p)
	})
	if err != nil {
		return nil, err
	}
	return osDisks(ionDirs(c.diskDir))
}
