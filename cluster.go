package panda

import (
	"fmt"
	"time"

	"panda/internal/core"
	"panda/internal/storage"
)

// ErrTimeout reports a collective operation that exceeded the cluster's
// OpTimeout. Match it with errors.Is; the cluster remains usable for
// further operations.
var ErrTimeout = core.ErrTimeout

// ErrPeerLost reports a collective operation abandoned because a
// participating node was observed dead (rather than merely slow).
var ErrPeerLost = core.ErrPeerLost

// ErrNoCommittedEpoch reports a Restart (or any collective read, or an
// AssembleArray) that found no committed checkpoint epoch to serve —
// for example after a crash before the very first Checkpoint committed.
var ErrNoCommittedEpoch = core.ErrNoCommittedEpoch

// ErrCorrupt reports committed data that cannot be produced as
// committed: a verified read (Config.VerifyOnRestart) whose data fails
// its manifest checksums, a manifest that contradicts the schema, or an
// AssembleArray that finds a chunk of the decided epoch on no I/O node.
var ErrCorrupt = core.ErrCorrupt

// RetryPolicy bounds client-side retries of whole collective
// operations that failed with ErrTimeout or ErrPeerLost. Retries
// re-submit the same operation under the same sequence number with an
// incremented attempt counter; servers deduplicate, so a retry that
// races a slow first attempt is safe.
type RetryPolicy = core.RetryPolicy

// Config describes a Panda deployment: how many compute nodes (Panda
// clients) and I/O nodes (Panda servers) to run, and where the I/O
// nodes store their files.
type Config struct {
	// ComputeNodes is the number of compute nodes; every array's
	// memory layout must have this many mesh positions.
	ComputeNodes int
	// IONodes is the number of I/O nodes. Disk-schema chunks are
	// assigned to them round-robin.
	IONodes int
	// Dir, when non-empty, stores each I/O node's files under
	// Dir/ion<i>/ on the host file system. When empty, files live in
	// memory and vanish with the cluster.
	Dir string
	// SubchunkBytes bounds the unit of data transfer and disk I/O;
	// 0 means the paper's 1 MB.
	SubchunkBytes int64
	// Pipeline is the number of sub-chunks each I/O node keeps in
	// flight during writes; 0 or 1 is the paper's blocking behaviour.
	// At 2 or more the node also starts its storage stage and writes
	// completed sub-chunks behind the network, up to Pipeline of them
	// outstanding at the disk (so at most 2*Pipeline sub-chunk buffers
	// per node), overlapping disk and communication.
	Pipeline int
	// ReadAhead is the number of sub-chunk reads each I/O node keeps
	// outstanding at its storage stage beyond the sub-chunk it is
	// scattering (at most ReadAhead+1 buffers per node); 0 is the
	// paper's serial behaviour.
	ReadAhead int
	// OpTimeout bounds every collective operation. A node that cannot
	// finish within the budget abandons the operation and returns an
	// error matching ErrTimeout (or ErrPeerLost when a participant is
	// known dead); the cluster stays usable afterwards. Zero — the
	// default — keeps the paper's original unbounded blocking
	// behaviour.
	OpTimeout time.Duration
	// PullRetries is how many times an I/O node re-requests missing
	// write data inside the OpTimeout budget before giving up; pulls
	// are idempotent so retries are safe. Meaningless without
	// OpTimeout.
	PullRetries int
	// Retry makes compute nodes retry a whole collective operation
	// that failed with ErrTimeout or ErrPeerLost, after an
	// exponentially backed-off (optionally jittered) pause. Combined
	// with OpTimeout this rides out an I/O-node crash: the retried
	// operation replans the dead node's chunks across the survivors.
	// The zero value disables retries; meaningless without OpTimeout.
	Retry RetryPolicy
	// VerifyOnRestart makes every collective read verify served files
	// against their committed manifests (size plus per-extent CRC32C)
	// before any byte reaches a compute node, failing with ErrCorrupt
	// on a mismatch instead of silently returning damaged data.
	VerifyOnRestart bool
	// PlainWrites disables crash-consistent writes: I/O nodes write
	// straight to the final file names with no epoch staging, manifest,
	// or commit exchange. The default (false) stages every collective
	// write as an epoch and commits it atomically, so a crash at any
	// point leaves either the previous or the new contents — never a
	// mix.
	PlainWrites bool
}

// Cluster is an in-process Panda deployment. Its I/O-node state (the
// disks) persists across Run calls, so one Run can write arrays and a
// later Run can read them back — or restart from a checkpoint.
type Cluster struct {
	cfg   core.Config
	disks []storage.Disk
}

// NewCluster validates the configuration and creates the I/O nodes'
// file systems.
func NewCluster(cfg Config) (*Cluster, error) {
	ccfg := core.Config{
		NumClients:      cfg.ComputeNodes,
		NumServers:      cfg.IONodes,
		SubchunkBytes:   cfg.SubchunkBytes,
		Pipeline:        cfg.Pipeline,
		ReadAhead:       cfg.ReadAhead,
		OpTimeout:       cfg.OpTimeout,
		PullRetries:     cfg.PullRetries,
		Retry:           cfg.Retry,
		VerifyOnRestart: cfg.VerifyOnRestart,
		PlainWrites:     cfg.PlainWrites,
	}
	if err := ccfg.Validate(); err != nil {
		return nil, err
	}
	disks := make([]storage.Disk, cfg.IONodes)
	for i := range disks {
		if cfg.Dir == "" {
			disks[i] = storage.NewMemDisk()
			continue
		}
		d, err := storage.NewOSDisk(storage.NodeDir(cfg.Dir, i))
		if err != nil {
			return nil, err
		}
		disks[i] = d
	}
	return &Cluster{cfg: ccfg, disks: disks}, nil
}

// IONodeDir returns the directory backing I/O node i, or "" for
// in-memory clusters. With a traditional-order disk schema
// (BLOCK,NONE,...) and an epoch committed with every I/O node up,
// concatenating the array's file from IONodeDir(0), IONodeDir(1), ...
// yields the array in row-major order. An epoch written with a node
// down, or whose commit was interrupted, is laid out otherwise:
// AssembleArray reads any committed epoch under any disk schema.
func (c *Cluster) IONodeDir(i int) string {
	if d, ok := c.disks[i].(*storage.OSDisk); ok {
		return d.Root()
	}
	return ""
}

// Run starts the cluster — one goroutine per compute node and per I/O
// node — and executes app on every compute node. It blocks until all
// application code has finished and the I/O nodes have shut down, and
// returns the first error any node reported.
//
// app must follow the SPMD rules of the paper: every node makes the
// same collective calls in the same order.
func (c *Cluster) Run(app func(n *Node) error) error {
	return core.RunReal(c.cfg, c.disks, func(cl *core.Client) error {
		n := &Node{cl: cl, data: make(map[*Array][]byte), steps: make(map[*Group]int)}
		return app(n)
	})
}

// Node is the per-compute-node handle passed to a Run application. It
// binds local chunk buffers to declared arrays and issues the
// collective operations.
type Node struct {
	cl    *core.Client
	data  map[*Array][]byte
	steps map[*Group]int
}

// Rank returns this compute node's rank in [0, ComputeNodes). The rank
// is also the index of the memory chunk this node holds of every
// array.
func (n *Node) Rank() int { return n.cl.Rank() }

// ChunkBytes returns the buffer size this node must bind for the
// array: the byte size of its memory-schema chunk.
func (n *Node) ChunkBytes(a *Array) int64 {
	return a.spec.MemChunkBytes(n.Rank())
}

// ChunkBounds returns this node's chunk as per-dimension [lo, hi)
// bounds in global coordinates.
func (n *Node) ChunkBounds(a *Array) (lo, hi []int) {
	r := a.spec.MemChunk(n.Rank())
	return append([]int(nil), r.Lo...), append([]int(nil), r.Hi...)
}

// Bind associates buf with this node's chunk of a for subsequent
// collective operations. buf must hold exactly ChunkBytes(a) bytes
// (the chunk in row-major order).
func (n *Node) Bind(a *Array, buf []byte) error {
	if want := n.ChunkBytes(a); int64(len(buf)) != want {
		return fmt.Errorf("panda: node %d: buffer for %s holds %d bytes, chunk needs %d",
			n.Rank(), a.name, len(buf), want)
	}
	n.data[a] = buf
	return nil
}

func (n *Node) gather(arrays []*Array) ([]core.ArraySpec, [][]byte, error) {
	if len(arrays) == 0 {
		return nil, nil, fmt.Errorf("panda: empty array group")
	}
	specs := make([]core.ArraySpec, len(arrays))
	bufs := make([][]byte, len(arrays))
	for i, a := range arrays {
		buf, ok := n.data[a]
		if !ok {
			return nil, nil, fmt.Errorf("panda: node %d: array %s has no bound buffer", n.Rank(), a.name)
		}
		specs[i] = a.spec
		bufs[i] = buf
	}
	return specs, bufs, nil
}

// WriteArray collectively writes one array.
func (n *Node) WriteArray(a *Array) error { return n.write("", a) }

// ReadArray collectively reads one array into its bound buffer.
func (n *Node) ReadArray(a *Array) error { return n.read("", a) }

func (n *Node) write(suffix string, arrays ...*Array) error {
	specs, bufs, err := n.gather(arrays)
	if err != nil {
		return err
	}
	return n.cl.WriteArrays(suffix, specs, bufs)
}

func (n *Node) read(suffix string, arrays ...*Array) error {
	specs, bufs, err := n.gather(arrays)
	if err != nil {
		return err
	}
	return n.cl.ReadArrays(suffix, specs, bufs)
}

// Write collectively writes every array of the group (one collective
// operation, plain file names).
func (n *Node) Write(g *Group) error { return n.write("", g.arrays...) }

// Read collectively reads every array of the group.
func (n *Node) Read(g *Group) error { return n.read("", g.arrays...) }

// Timestep saves the group's arrays for the current timestep — the
// paper's repeated output of timestep computations. Each call writes
// files suffixed .t0, .t1, ... in one collective operation.
func (n *Node) Timestep(g *Group) error {
	step := n.steps[g]
	if err := n.write(fmt.Sprintf(".t%d", step), g.arrays...); err != nil {
		return err
	}
	n.steps[g] = step + 1
	return nil
}

// TimestepCount reports how many timesteps of the group this node has
// written.
func (n *Node) TimestepCount(g *Group) int { return n.steps[g] }

// ReadTimestep reads the group's arrays as saved at the given step.
func (n *Node) ReadTimestep(g *Group, step int) error {
	return n.read(fmt.Sprintf(".t%d", step), g.arrays...)
}

// Checkpoint saves the group's arrays to checkpoint files, overwriting
// any previous checkpoint.
func (n *Node) Checkpoint(g *Group) error { return n.write(".ckpt", g.arrays...) }

// Restart loads the group's arrays from the latest checkpoint into
// their bound buffers.
func (n *Node) Restart(g *Group) error { return n.read(".ckpt", g.arrays...) }
