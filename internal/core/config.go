// Package core implements Panda 2.0's server-directed collective I/O:
// the paper's primary contribution.
//
// A Panda deployment has NumClients compute nodes (Panda clients) and
// NumServers I/O nodes (Panda servers) sharing one mpi communicator;
// ranks [0, NumClients) are clients and [NumClients, NumClients+
// NumServers) are servers. Rank 0 is the master client; rank NumClients
// is the master server.
//
// A collective operation proceeds exactly as §2 of the paper describes:
//
//  1. Every client enters the collective call. The master client sends
//     the master server a short high-level description of the arrays
//     and their two schemas (memory and disk).
//  2. The master server forwards the description to the other servers.
//  3. Each server independently plans its part: disk chunks are
//     implicitly assigned round-robin across servers; the server walks
//     its assigned chunks in file order, splitting any chunk larger
//     than the sub-chunk limit (1 MB in the paper) into contiguous
//     sub-chunks on the fly.
//  4. For writes the server *requests* each sub-chunk's pieces from
//     the clients that hold them, reorganizes the received pieces into
//     traditional (row-major) order, and appends the sub-chunk to its
//     file with a strictly sequential write. For reads the server
//     reads sub-chunks sequentially and scatters the pieces to the
//     clients that need them. Clients never initiate data transfer:
//     the servers direct the flow — hence server-directed I/O.
//  5. Servers report completion to the master server, which informs
//     the master client, which informs the other clients.
package core

import (
	"fmt"
	"time"

	"panda/internal/mpi"
	"panda/internal/obs"
)

// DefaultSubchunkBytes is the sub-chunk size limit used for every
// experiment in the paper ("we chose a subchunk size of 1 MB").
const DefaultSubchunkBytes = 1 << 20

// Config describes a Panda deployment.
type Config struct {
	// NumClients is the number of compute nodes.
	NumClients int
	// NumServers is the number of I/O nodes.
	NumServers int
	// SubchunkBytes bounds the size of the units servers move and
	// write; 0 means DefaultSubchunkBytes.
	SubchunkBytes int64
	// Pipeline is the number of sub-chunks a server keeps in flight
	// during writes; 1 (or 0, meaning 1) reproduces the paper's
	// blocking behaviour, larger values implement the non-blocking
	// overlap the paper proposes as future work. At 2 or more the node's
	// storage stage (diskSched) writes behind the network stage with at
	// most Pipeline writes outstanding, so a write holds at most
	// 2*Pipeline sub-chunk buffers; below it each write is done before
	// the next pull goes out. (With Sched.MaxInflight > 0 the window is
	// always max(2, Pipeline).)
	Pipeline int
	// ReadAhead is the number of sub-chunk reads kept outstanding at
	// the storage stage beyond the sub-chunk being scattered. 0 — the
	// default — reproduces the paper's strictly serial read-then-scatter
	// loop; 1 or more overlaps disk reads with piece scattering while
	// file access stays in plan order. A read holds at most ReadAhead+1
	// sub-chunk buffers.
	ReadAhead int
	// StartupOverhead is charged once per collective operation at the
	// master server, modelling the measured ~13 ms fixed cost of a
	// Panda operation on the SP2. Zero for real-time runs.
	StartupOverhead time.Duration
	// CopyRate models the node CPU/memory cost of strided
	// reorganization copies, in bytes per second; 0 makes copies
	// free. Contiguous transfers are never charged (the natural
	// chunking fast path).
	CopyRate float64
	// OpTimeout bounds every collective operation: a node that cannot
	// finish its part within the budget abandons the operation and
	// returns an error wrapping ErrTimeout (or ErrPeerLost when the
	// transport knows a participant died). Servers spend at most 1.5x
	// the budget per operation (their own share plus completion
	// collection); clients wait up to 2x the budget for the outcome, so
	// a backlogged server drains faster than failed operations pile up.
	// Zero — the default — disables deadlines entirely and reproduces
	// the paper's original blocking protocol; simulations use zero so
	// virtual-time runs stay byte-for-byte deterministic.
	OpTimeout time.Duration
	// PullRetries is the number of times a server re-requests the
	// missing pieces of an in-flight sub-chunk during a write before
	// giving up, spacing the attempts evenly inside OpTimeout. Pulls
	// are idempotent (clients re-extract and servers deduplicate), so
	// retries mask transient message loss. 0 means no retries; the
	// field is meaningless unless OpTimeout is set.
	PullRetries int
	// Retry makes clients retry a whole collective that failed with
	// ErrTimeout or ErrPeerLost: the same operation is re-submitted
	// under the same sequence number with an incremented attempt
	// counter, after an exponentially backed-off pause. The zero value
	// disables whole-operation retries. Like PullRetries it is
	// meaningless without OpTimeout.
	Retry RetryPolicy
	// VerifyOnRestart makes reads verify every served file against its
	// committed manifest (size plus per-extent CRC32C) before any byte
	// goes to a client, returning ErrCorrupt on a mismatch. It turns a
	// silent torn sync into a typed, actionable failure at Restart
	// time, at the cost of one extra read pass over the file.
	VerifyOnRestart bool
	// PlainWrites disables crash-consistent writes: servers write
	// straight to the final file names with no epoch temps, manifests,
	// or commit exchange — the pre-manifest behaviour. The default
	// (false) stages every collective write as an epoch and commits it
	// atomically. The simulation harness sets PlainWrites because the
	// paper's machines had no such machinery and the virtual-time
	// goldens are calibrated without it. A disk that does not keep
	// what it is given (storage.NewNullDisk) needs PlainWrites too: a
	// decision record it returns as zeros fails the key's next
	// operation as ErrCorrupt.
	PlainWrites bool
	// Trace, when non-nil, records a structured trace of every
	// collective operation on every node sharing this configuration:
	// op/plan/network/disk/stall/reorg spans timestamped by each
	// node's clock (exact under virtual time, wall-coherent under
	// RunReal). nil — the default — disables tracing at the cost of
	// one branch per instrumentation point.
	Trace *obs.Recorder
	// Metrics, when non-nil, aggregates cluster-wide counters and
	// bounded histograms (message traffic, sub-chunk latency, receive
	// waits, storage-stage window depth) into the registry. nil disables.
	Metrics *obs.Registry
	// Topology, when non-nil, turns on topology-aware communication
	// schedules: control broadcasts (request relay, abort, commit
	// decision, reassignment/membership-epoch rebroadcast, completion
	// relay) flow down synthesized rack-major trees instead of flat
	// master fan-out, and each server's pull schedule is reordered for
	// rack affinity (see topoplan.go). Simulated deployments also
	// install it into the SimWorld charge model. Nil — the zero value —
	// keeps every path byte-identical to the flat protocol.
	Topology *mpi.Topology
	// FlatSchedules keeps the paper's flat control fan-outs and pull
	// ordering even when Topology is non-nil; the simulated network is
	// still charged with the topology's link model. Measurement knob:
	// it isolates the synthesized schedules' contribution from the
	// network model's (harness topology figure, pandabench -topo-*).
	FlatSchedules bool
	// OpLog, when non-nil, receives a summary of every collective
	// operation a server completes (success or failure), from the
	// server's own goroutine. The daemon feeds its telemetry plane from
	// it; keep the callback cheap.
	OpLog func(OpSummary)
	// dispatched is the deployment's table of dispatched, unretired
	// operations, which the master server's router keeps (Service sets
	// it; a master outside a Service keeps a private one).
	dispatched *dispatchTable
	// dispatchHook, when non-nil, is called with an operation's seq as a
	// server dispatches it, from the router goroutine. Test-only:
	// unexported.
	dispatchHook func(seq int)
	// schedSeed, when nonzero, randomizes the master's dispatch order
	// among tenants whose deficit already affords their next op —
	// deterministically per seed. The interleave conformance suite
	// sweeps it. Test-only: unexported; a Reconfig leaves it alone.
	schedSeed int64
	// crashHook, when non-nil, is consulted by servers at named points
	// of a collective write (plan, pull, sync, prepare, commit); a
	// non-nil return makes the server die at that point exactly as an
	// injected transport crash would. Recovery tests use it to sweep
	// crash windows deterministically. Test-only: unexported.
	crashHook func(server int, point string) error
	// crashHookOp is the per-operation variant used under the
	// scheduler: a non-nil return kills only that operation (it aborts
	// and rolls back) while the server and every concurrent op keep
	// running. Test-only: unexported.
	crashHookOp func(server, seq int, point string) error

	// Service marks a resident deployment (a pandad daemon): servers
	// stay up with no fixed client group, sessions attach and detach at
	// will, and rank 0 is just the first assignable client slot rather
	// than a master whose death ends the deployment. Servers therefore
	// never exit on "master client gone while idle", and shutdown comes
	// from the service's drain (an injected Shutdown frame) instead of
	// the master client's handshake.
	Service bool

	// Sched configures the operation scheduler every server runs. The
	// zero value (MaxInflight == 0) serves one operation at a time with
	// the paper's serial storage loop.
	Sched SchedConfig

	// Members, when non-nil, makes server membership elastic: NumServers
	// becomes the pool's *capacity*, with Members tracking which slots
	// are live. The master's scheduler stamps every operation with the
	// slots currently down (as its Deads list) and the membership epoch
	// it dispatched under. nil — the default — is the fixed membership
	// of the paper. Requires Service mode and Sched.MaxInflight > 0.
	Members *Membership
}

// SchedConfig tunes the server-side operation scheduler that admits
// many independent collectives onto one deployment: a bounded
// admission queue with backpressure, deficit-round-robin weighted
// fairness across tenants, and per-array conflict serialization.
type SchedConfig struct {
	// MaxInflight is the number of operations the master server
	// dispatches concurrently. 0 is one at a time with the paper's
	// serial WriteAt/ReadAt loop (unless Pipeline or ReadAhead widen the
	// storage stage's window); 1 is one at a time with a write-behind
	// window of max(2, Pipeline) — the baseline the mixed-workload bench
	// compares against.
	MaxInflight int
	// QueueDepth bounds the admission queue (0 = 16). A request
	// arriving with the queue full is refused with ErrBusy.
	QueueDepth int
	// Weights maps tenant name → scheduling weight for the
	// deficit-round-robin dispatcher; tenants not listed (and the
	// empty tenant) weigh 1. A tenant with weight w receives a w/Σw
	// share of dispatched bytes when the queue is contended.
	Weights map[string]int
	// Quantum is the byte credit added to a tenant's deficit per DRR
	// round, scaled by its weight (0 = 1 MiB). Smaller quanta
	// interleave tenants more finely; larger quanta favor throughput.
	Quantum int64
}

// enabled reports whether operations may overlap, which opens their
// writes' window at the node's storage stage.
func (sc SchedConfig) enabled() bool { return sc.MaxInflight > 0 }

// queueDepth returns the admission queue bound.
func (sc SchedConfig) queueDepth() int {
	if sc.QueueDepth <= 0 {
		return 16
	}
	return sc.QueueDepth
}

// quantum returns the DRR byte quantum.
func (sc SchedConfig) quantum() int64 {
	if sc.Quantum <= 0 {
		return 1 << 20
	}
	return sc.Quantum
}

// weight returns the scheduling weight of a tenant.
func (sc SchedConfig) weight(tenant string) int {
	if w, ok := sc.Weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// RetryPolicy bounds client-side retries of failed collectives.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt; 0 disables.
	Max int
	// Backoff is the pause before the first retry; each further retry
	// doubles it, capped at 10*Backoff.
	Backoff time.Duration
	// Jitter, in [0,1], randomizes each pause by ±Jitter of itself so
	// the clients of a wedged cluster do not stampede in lockstep.
	Jitter float64
}

// pause returns the backoff before retry i (0-based), unjittered.
func (p RetryPolicy) pause(i int) time.Duration {
	d, limit := p.Backoff, 10*p.Backoff
	for ; i > 0 && d < limit; i-- {
		d *= 2
	}
	return min(d, limit)
}

// OpSummary describes one completed collective operation on one
// server: what it did and what the robustness machinery absorbed.
type OpSummary struct {
	// Server is the reporting server's index.
	Server int
	// Seq is the operation sequence number.
	Seq int
	// Op is "write" or "read".
	Op string
	// Bytes is this server's share of the operation's payload.
	Bytes int64
	// Elapsed is the server's time inside the operation.
	Elapsed time.Duration
	// Err is the operation's outcome on this server (nil = success).
	Err error
	// Tenant is the submitting tenant.
	Tenant string
	// Stats is this operation's own counter snapshot on this server —
	// attributed exactly, even with other ops in flight on the node.
	Stats Stats
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumClients <= 0 {
		return fmt.Errorf("core: NumClients = %d, must be positive", c.NumClients)
	}
	if c.NumServers <= 0 {
		return fmt.Errorf("core: NumServers = %d, must be positive", c.NumServers)
	}
	if c.SubchunkBytes < 0 || c.SubchunkBytes > maxSubchunkBytes {
		return fmt.Errorf("core: SubchunkBytes = %d, must be in [0, %d] (one transport frame)", c.SubchunkBytes, maxSubchunkBytes)
	}
	if c.Pipeline < 0 {
		return fmt.Errorf("core: negative Pipeline")
	}
	if c.ReadAhead < 0 {
		return fmt.Errorf("core: negative ReadAhead")
	}
	if c.OpTimeout < 0 {
		return fmt.Errorf("core: negative OpTimeout")
	}
	if c.PullRetries < 0 {
		return fmt.Errorf("core: negative PullRetries")
	}
	if c.Retry.Max < 0 {
		return fmt.Errorf("core: negative Retry.Max")
	}
	if c.Retry.Backoff < 0 {
		return fmt.Errorf("core: negative Retry backoff")
	}
	if c.Retry.Jitter < 0 || c.Retry.Jitter > 1 {
		return fmt.Errorf("core: Retry.Jitter = %v, must be in [0,1]", c.Retry.Jitter)
	}
	if c.Sched.MaxInflight < 0 {
		return fmt.Errorf("core: negative Sched.MaxInflight")
	}
	if c.Sched.QueueDepth < 0 {
		return fmt.Errorf("core: negative Sched.QueueDepth")
	}
	if c.Sched.Quantum < 0 {
		return fmt.Errorf("core: negative Sched.Quantum")
	}
	for t, w := range c.Sched.Weights {
		if w <= 0 {
			return fmt.Errorf("core: Sched.Weights[%q] = %d, must be positive", t, w)
		}
	}
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.Members != nil {
		if !c.Service || !c.Sched.enabled() {
			return fmt.Errorf("core: elastic membership requires Service mode and the scheduler")
		}
		if c.Members.Capacity() != c.NumServers {
			return fmt.Errorf("core: membership capacity %d != NumServers %d", c.Members.Capacity(), c.NumServers)
		}
	}
	return nil
}

// WorldSize is the total communicator size for this deployment.
func (c Config) WorldSize() int { return c.NumClients + c.NumServers }

// MasterClient and MasterServer are the coordinating ranks.
func (c Config) MasterClient() int { return 0 }

// MasterServer returns the rank of the coordinating server.
func (c Config) MasterServer() int { return c.NumClients }

// ServerRank maps a server index in [0, NumServers) to its world rank.
func (c Config) ServerRank(i int) int { return c.NumClients + i }

// ServerIndex maps a world rank back to a server index.
func (c Config) ServerIndex(rank int) int { return rank - c.NumClients }

// IsServer reports whether a world rank is an I/O node.
func (c Config) IsServer(rank int) bool { return rank >= c.NumClients }

func (c Config) subchunkBytes() int64 {
	if c.SubchunkBytes == 0 {
		return DefaultSubchunkBytes
	}
	return c.SubchunkBytes
}

func (c Config) pipeline() int {
	if c.Pipeline <= 0 {
		return 1
	}
	return c.Pipeline
}

func (c Config) readAhead() int {
	if c.ReadAhead <= 0 {
		return 0
	}
	return c.ReadAhead
}
