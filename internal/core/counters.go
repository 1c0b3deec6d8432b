package core

import "panda/internal/obs"

// counters.go is the one place an event is counted. Each node owns one
// block of counters; an instrumentation point does a single Add on the
// block it runs under, and chaining carries the increment upward — from
// an operation's private block to its node's block to the deployment's
// obs.Registry counter of the same name — so "per-op sum == node total ==
// registry total" holds by construction rather than by a merge step.

// Stats is a snapshot of a counter block: a node's traffic during
// collective operations (Client.Stats, Server.Stats) or one operation's
// share of it (OpSummary.Stats). Every field is a row of counterTable.
type Stats struct {
	// MsgsSent and BytesSent count outgoing protocol messages.
	MsgsSent, BytesSent int64
	// MsgsRecv and BytesRecv count incoming protocol messages.
	MsgsRecv, BytesRecv int64
	// ReorgBytes counts bytes moved by non-contiguous
	// (reorganization) copies; natural chunking keeps this at zero.
	ReorgBytes int64
	// Timeouts counts deadline expiries and peer losses this node hit
	// locally (always zero when Config.OpTimeout is unset).
	Timeouts int64
	// Retries counts sub-chunk pull re-requests this server issued to
	// mask lost messages during writes.
	Retries int64
	// Aborts counts operations this node abandoned — on the master
	// server, abort broadcasts sent; elsewhere, aborts obeyed.
	Aborts int64
	// Reassigns counts replanning rounds: a participant died mid-write
	// and the master rebroadcast the request with the dead server's
	// chunks reassigned across the survivors.
	Reassigns int64
	// RollForwards counts interrupted commits this server finished at
	// read time: a decided epoch whose rename never happened, completed
	// from its durable temp files before serving.
	RollForwards int64
	// Degraded counts collective operations that completed with one or
	// more participants dead (writes after reassignment, reads served
	// entirely by survivors).
	Degraded int64
	// OverlapNanos is disk time the storage stage hid behind network
	// activity: what the stage spent serving an operation's requests
	// minus the mover's waits on it, clamped at zero per array. Zero
	// with a window of zero (off the scheduler with Pipeline <= 1 and
	// ReadAhead == 0), where the mover waits out every disk call.
	OverlapNanos int64
	// StallNanos is time the network stage spent blocked on the storage
	// stage — writes waiting for a full window, reads waiting for a
	// prefetch, the create/open call and the end-of-array join. High
	// stalls mean the disk, not the network, bounds the operation.
	StallNanos int64
	// ContigBytes counts bytes moved through contiguous fast paths —
	// the complement of ReorgBytes, so the two together split every
	// byte moved by data placement.
	ContigBytes int64
	// FramesCoalesced counts data frames that left without a copy made
	// only to frame them: a contiguous piece shipped as header + borrowed
	// payload segments by a scatter-gather transport (in-process and
	// simulated delivery park frames, so they flatten the two and do not
	// count), a piece whose file range went to a socket by sendfile
	// (ZeroCopyBytes), and — on every transport — a strided piece, which
	// is packed straight into its frame (packedFrame) where it used to be
	// packed into a scratch buffer and framed from there.
	FramesCoalesced int64
	// ZeroCopyBytes counts read payload bytes that skipped a copy through
	// a pooled frame. On a server: bytes sent from the page cache straight
	// to a socket (sendfile), never read into its memory — every byte of
	// a natural read served from host files over a socket transport. On a
	// client: bytes its dialed endpoint read from the socket straight into
	// the application's array (posted receives) — the natural pieces of a
	// read that arrive once it is posted. Zero on every other path.
	ZeroCopyBytes int64
	// PlanHits and PlanMisses count plan-cache consultations on this
	// server: a hit reuses the chunk assignment and sub-chunk schedule
	// of an identical earlier operation instead of recomputing them.
	PlanHits, PlanMisses int64
	// FramesRejected counts frames a node's router refused: one whose
	// tag names a finished or unknown operation, or no operation at all
	// (stale, duplicate, or misdirected traffic), is dropped rather than
	// absorbed into another op's state.
	FramesRejected int64
	// SchedBusy counts operations refused at admission because the
	// scheduler's bounded queue was full (returned as ErrBusy).
	SchedBusy int64
	// DiskMerges counts adjacent disk requests the scheduler's batch
	// queue coalesced into single larger transfers across (and within)
	// concurrent operations.
	DiskMerges int64
}

// counterID indexes one counter of a block.
type counterID int

const (
	cMsgsSent counterID = iota
	cBytesSent
	cMsgsRecv
	cBytesRecv
	cReorgBytes
	cTimeouts
	cRetries
	cAborts
	cReassigns
	cRollForwards
	cDegraded
	cOverlapNanos
	cStallNanos
	cContigBytes
	cFramesCoalesced
	cZeroCopyBytes
	cPlanHits
	cPlanMisses
	cFramesRejected
	cSchedBusy
	cDiskMerges
	numCounters
)

// counterTable pairs every counter with its registry name and the Stats
// field a snapshot reports it in.
var counterTable = [numCounters]struct {
	name  string
	field func(*Stats) *int64
}{
	cMsgsSent:        {"msgs_sent", func(s *Stats) *int64 { return &s.MsgsSent }},
	cBytesSent:       {"bytes_sent", func(s *Stats) *int64 { return &s.BytesSent }},
	cMsgsRecv:        {"msgs_recv", func(s *Stats) *int64 { return &s.MsgsRecv }},
	cBytesRecv:       {"bytes_recv", func(s *Stats) *int64 { return &s.BytesRecv }},
	cReorgBytes:      {"reorg_bytes", func(s *Stats) *int64 { return &s.ReorgBytes }},
	cTimeouts:        {"timeouts", func(s *Stats) *int64 { return &s.Timeouts }},
	cRetries:         {"retries", func(s *Stats) *int64 { return &s.Retries }},
	cAborts:          {"aborts", func(s *Stats) *int64 { return &s.Aborts }},
	cReassigns:       {"reassigns", func(s *Stats) *int64 { return &s.Reassigns }},
	cRollForwards:    {"roll_forwards", func(s *Stats) *int64 { return &s.RollForwards }},
	cDegraded:        {"degraded_ops", func(s *Stats) *int64 { return &s.Degraded }},
	cOverlapNanos:    {"overlap_ns", func(s *Stats) *int64 { return &s.OverlapNanos }},
	cStallNanos:      {"stall_ns", func(s *Stats) *int64 { return &s.StallNanos }},
	cContigBytes:     {"contig_bytes", func(s *Stats) *int64 { return &s.ContigBytes }},
	cFramesCoalesced: {"frames_coalesced", func(s *Stats) *int64 { return &s.FramesCoalesced }},
	cZeroCopyBytes:   {"zero_copy_bytes", func(s *Stats) *int64 { return &s.ZeroCopyBytes }},
	cPlanHits:        {"plan_cache_hits", func(s *Stats) *int64 { return &s.PlanHits }},
	cPlanMisses:      {"plan_cache_misses", func(s *Stats) *int64 { return &s.PlanMisses }},
	cFramesRejected:  {"sched_frames_rejected", func(s *Stats) *int64 { return &s.FramesRejected }},
	cSchedBusy:       {"sched_busy_rejects", func(s *Stats) *int64 { return &s.SchedBusy }},
	cDiskMerges:      {"sched_disk_merges", func(s *Stats) *int64 { return &s.DiskMerges }},
}

// counters is one block: a node's totals, or one operation's share.
type counters [numCounters]obs.Counter

// newNodeCounters builds a node's block, chained to the registry's
// counters of the same names (unchained when reg is nil).
func newNodeCounters(reg *obs.Registry) *counters {
	c := new(counters)
	if reg != nil {
		for i := range c {
			c[i].ChainTo(reg.Counter(counterTable[i].name))
		}
	}
	return c
}

// newOpCounters builds one operation's block, chained to its node's.
func newOpCounters(node *counters) *counters {
	c := new(counters)
	for i := range c {
		c[i].ChainTo(&node[i])
	}
	return c
}

// snapshot reads the block race-cleanly: counters are atomic, so a
// block may be sampled from any goroutine at any time — mid-operation
// and during aborts included.
func (c *counters) snapshot() Stats {
	var st Stats
	for i := range c {
		*counterTable[i].field(&st) = c[i].Value()
	}
	return st
}
