package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"panda/internal/bufpool"
	"panda/internal/obs"
	"panda/internal/storage"
)

// Crash-consistent collective writes: two-phase commit over epochs.
//
// In commit mode (the default; Config.PlainWrites opts out) a
// collective write never touches the committed file names until every
// participant has durably staged its share:
//
//	DIRTY     each server pulls its sub-chunks into an epoch-suffixed
//	          temp file, then writes a manifest (schema fingerprint,
//	          chunk list, per-sub-chunk CRC32C) beside it;
//	PREPARED  data and manifest are synced; the server reports
//	          msgPrepared to the master server and waits;
//	COMMITTED the master, having collected every Prepared, stamps a
//	          durable decision record on its own disk — the
//	          linearization point — then broadcasts msgCommit; each
//	          server renames temp data and manifest onto the plain
//	          names (retaining the outgoing epoch one deep) and acks
//	          with msgCommitted.
//
// A crash before the decision leaves only sweepable temp debris; a
// crash after it leaves a decision that read-time roll-forward and
// pandafsck both complete. At no instant can a reader observe a torn
// mix of epochs.
//
// Server failover: when the master finds a participant dead mid-write
// (missing Prepared plus a transport death report), it rebroadcasts the
// request with Round+1 and the dead servers listed; every survivor
// independently replans with the dead servers' chunks reassigned
// round-robin across the survivors (PlaceChunks) and restages the
// same epoch. The rebroadcast travels on this operation's server tag,
// which reaches survivors wherever they block — mid-pull or awaiting
// commit.

// errServerCrashed is the injected-crash sentinel: Config.crashHook
// returned non-nil, and the server must die on the spot (no Done, no
// cleanup) exactly like a killed process.
var errServerCrashed = errors.New("core: server crashed (injected)")

// errOpCrashed is the per-operation injected-crash sentinel:
// Config.crashHookOp returned non-nil, killing only this operation.
// The op aborts and rolls back (or, past the decision point, is left
// for read-time roll-forward) while the server and every concurrent
// operation keep running — the isolation the scheduler must prove.
var errOpCrashed = errors.New("core: operation crashed (injected)")

// maxReassignRounds bounds replanning: each round removes at least one
// server, so NumServers rounds is already unreachable.
const maxReassignRounds = 8

// crashPoint consults the injected crash hooks at a named point of the
// write path. A non-nil crashHook error kills the server there; a
// non-nil crashHookOp error kills only the current operation.
func (s *Server) crashPoint(point string) error {
	if s.cfg.crashHookOp != nil {
		if err := s.cfg.crashHookOp(s.index, s.opSeq, point); err != nil {
			return fmt.Errorf("at %s: %w", point, errOpCrashed)
		}
	}
	if s.cfg.crashHook == nil {
		return nil
	}
	if err := s.cfg.crashHook(s.index, point); err != nil {
		return fmt.Errorf("at %s: %w", point, errServerCrashed)
	}
	return nil
}

// replanError carries a reassignment-round request up through the write
// path: the mover aborts the round in progress and handleOp restages
// with the new request.
type replanError struct{ req opRequest }

func (e *replanError) Error() string {
	return fmt.Sprintf("core: replan round %d (servers %v dead)", e.req.Round, e.req.Deads)
}

// abortedError marks a failure delivered by the master's abort
// broadcast. A participant that consumed one mid-pull must not enter
// the commit exchange: the master has already resolved the operation
// and is no longer listening for this server's Prepared.
type abortedError struct{ cause error }

func (e *abortedError) Error() string { return "aborted by master server: " + e.cause.Error() }
func (e *abortedError) Unwrap() error { return e.cause }

// preparedArray is one array's staged epoch on this server. known
// marks staged as vouched for by the retained record, so the commit
// acts on it without probing the disk.
type preparedArray struct {
	base   string
	epoch  uint64
	staged storage.Staged
	known  bool
}

// retainedSet is a server's record of what its own commits left on its
// disk: base → the epoch a CommitStaged of this process committed there
// after moving a manifest-complete pair to ".prev". So the record also
// says that base and its manifest exist and that no temp of that epoch
// remains. The next staging of base consumes its entry, and only a
// successful commit puts one back, so a failed commit, an abort or a
// replan leaves none. The one writer of a key's files besides this
// process's commits is Scrub, which rolls a key back (making ".prev"
// the decided epoch) only at daemon start or offline — before any
// entry exists — so an entry is never stale. Bound: one entry per key
// with a retained pair on this disk. Executors of concurrent operations
// share it (the scheduler serializes operations on one key), hence the
// mutex.
type retainedSet struct {
	mu      sync.Mutex
	entries map[string]uint64
}

// take consumes base's entry.
func (r *retainedSet) take(base string) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[base]
	delete(r.entries, base)
	return e, ok
}

func (r *retainedSet) put(base string, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries == nil {
		r.entries = make(map[string]uint64)
	}
	r.entries[base] = epoch
}

// manifestBuilder accumulates the per-sub-chunk CRCs of one array as
// the mover retires sub-chunks in plan (= file) order.
type manifestBuilder struct {
	subs []storage.ManifestSub
}

func (b *manifestBuilder) addSub(off, n int64, crc uint32) {
	b.subs = append(b.subs, storage.ManifestSub{Offset: off, Bytes: n, CRC: crc})
}

// buildManifest assembles the manifest for one staged array.
func buildManifest(spec ArraySpec, req opRequest, server int, epoch uint64, chunks []Placement, subs []storage.ManifestSub) *storage.Manifest {
	m := &storage.Manifest{
		Version:   storage.ManifestVersion,
		Array:     spec.Name,
		Suffix:    req.Suffix,
		Server:    server,
		Epoch:     epoch,
		SchemaSum: specFingerprint(spec),
		Degraded:  len(req.Deads) > 0,
		Subs:      subs,
	}
	for _, c := range chunks {
		m.Chunks = append(m.Chunks, storage.ManifestChunk{ChunkIdx: c.Chunk, Offset: c.Offset, Bytes: c.Bytes})
		m.TotalBytes += c.Bytes
	}
	return m
}

// deadSet turns a request's dead-server list into a lookup set.
func deadSet(deads []int) map[int]bool {
	if len(deads) == 0 {
		return nil
	}
	set := make(map[int]bool, len(deads))
	for _, d := range deads {
		set[d] = true
	}
	return set
}

// resolveEpochs fills req.Epochs from the master server's decision
// records: for writes the next epoch of every array (decided+1), for
// reads the decided epoch the whole deployment must serve (0 = nothing
// ever committed; readers fall back to legacy resolution). An absent
// record is "no decision"; one that exists but does not parse fails the
// operation as ErrCorrupt — read as epoch 0 it would restart the key's
// epochs under the committed ones.
func (s *Server) resolveEpochs(req *opRequest) error {
	req.Epochs = make([]uint64, len(req.Specs))
	for i, spec := range req.Specs {
		e, _, err := storage.ReadDecision(s.disk, spec.Name+req.Suffix)
		if err != nil {
			return fmt.Errorf("core: master server, array %s: %w (%v)", spec.Name, ErrCorrupt, err)
		}
		if req.Op == opWrite {
			e++
		}
		req.Epochs[i] = e
	}
	return nil
}

// stageEpochs performs the DIRTY→PREPARED half of a commit-mode write:
// every array planned (with dead servers' chunks reassigned), pulled
// into its epoch temp file, synced, and described by a temp manifest.
func (s *Server) stageEpochs(req opRequest, deadline time.Duration) ([]preparedArray, error) {
	dead := deadSet(req.Deads)
	prepared := make([]preparedArray, 0, len(req.Specs))
	for ai, spec := range req.Specs {
		if ai >= len(req.Epochs) || req.Epochs[ai] == 0 {
			return prepared, fmt.Errorf("core: server %d, array %s: write request carries no epoch", s.index, spec.Name)
		}
		epoch := req.Epochs[ai]
		jobs, subs := s.planArray(ai, spec, dead)
		if err := s.crashPoint("plan"); err != nil {
			return prepared, err
		}

		p := preparedArray{base: spec.FileName(req.Suffix, s.index), epoch: epoch}
		// When this server's own commit put epoch-1 on base, the pair it
		// retained then (epoch-2) is needed by nobody: its file becomes
		// this epoch's temp, and the commit need not probe.
		if e, ok := s.retained.take(p.base); ok && e == epoch-1 {
			p.known = true
			p.staged = storage.Staged{Data: len(subs) > 0, Manifest: true, Retain: len(subs) > 0}
		}
		mb := &manifestBuilder{}
		if len(subs) > 0 {
			reuse := p.known && storage.RecycleEpoch(s.disk, p.base, epoch) == nil
			if err := s.writeArray(spec, storage.EpochName(p.base, epoch), reuse, subs, deadline, mb); err != nil {
				return prepared, fmt.Errorf("core: server %d, array %s: %w", s.index, spec.Name, err)
			}
		}
		if err := s.crashPoint("sync"); err != nil {
			return prepared, err
		}
		m := buildManifest(spec, req, s.index, epoch, jobs, mb.subs)
		if err := storage.WriteManifest(s.disk, storage.EpochManifestName(p.base, epoch), m); err != nil {
			return prepared, fmt.Errorf("core: server %d, array %s: writing manifest: %w", s.index, spec.Name, err)
		}
		prepared = append(prepared, p)
	}
	if err := s.crashPoint("prepare"); err != nil {
		return prepared, err
	}
	return prepared, nil
}

// commitPrepared renames every staged array onto its committed names,
// recording each pair it retains for the next write to recycle.
func (s *Server) commitPrepared(prepared []preparedArray) error {
	for _, p := range prepared {
		if !p.known {
			p.staged = storage.ProbeStaged(s.disk, p.base, p.epoch)
		}
		retained, err := storage.CommitStaged(s.disk, p.base, p.epoch, p.staged)
		if err != nil {
			return fmt.Errorf("core: server %d: committing %s epoch %d: %w", s.index, p.base, p.epoch, err)
		}
		if retained {
			s.retained.put(p.base, p.epoch)
		}
	}
	return nil
}

// removePrepared scraps every staged array of an aborted attempt.
func (s *Server) removePrepared(prepared []preparedArray) {
	for _, p := range prepared {
		storage.RemoveEpoch(s.disk, p.base, p.epoch)
	}
}

// runCommitWrite drives a commit-mode write on this server, looping
// over reassignment rounds. It returns the operation outcome (sent to
// clients / the master); one wrapping errServerCrashed is fatal — the
// server must die on the spot (injected crash).
func (s *Server) runCommitWrite(req opRequest, deadline time.Duration) error {
	for {
		s.adoptRound(req)
		prepared, err := s.stageEpochs(req, deadline)
		var re *replanError
		var ab *abortedError
		switch {
		case errors.As(err, &re) || errors.Is(err, errServerCrashed):
			// No exchange: a new round supersedes this one, or we are dead.
		case s.IsMaster():
			err = s.masterCommit(req, prepared, err, deadline)
		case errors.As(err, &ab):
			// The master resolved the operation against us while we were
			// still pulling; it is not listening for our Prepared.
			s.removePrepared(prepared)
		default:
			s.send(s.cfg.MasterServer(), tagDoneFor(s.opSeq), encodeStatus(msgPrepared, req.Attempt, req.Round, err))
			if verr := s.waitCommit(req, prepared, deadline); verr != nil {
				err = verr
			}
		}
		if !errors.As(err, &re) {
			return err
		}
		s.plans.reset() // the alive set changed; cached plans are stale
		req = re.req
	}
}

// adoptRound records the attempt/round the server is now executing, for
// stale-frame filtering.
func (s *Server) adoptRound(req opRequest) {
	s.curAttempt, s.curRound = req.Attempt, req.Round
	s.curDeads = req.Deads
}

// masterCommit is the coordinator half of the two-phase commit: collect
// Prepared from every live participant, then either decide+commit,
// launch a reassignment round (some participant died; returned as a
// *replanError), or abort. An error wrapping errServerCrashed is fatal.
func (s *Server) masterCommit(req opRequest, prepared []preparedArray, ownErr error, deadline time.Duration) error {
	// A participant that is gone will never prepare: the collection ends
	// at the first death (or error) instead of burning its budget.
	newDeads, late, status := s.collect(msgPrepared, req, deadline, ownErr, true)
	if late {
		s.cnt[cTimeouts].Add(1)
	}

	if len(newDeads) > 0 && int(req.Round) < maxReassignRounds {
		// Server failover: replan the dead servers' chunks across the
		// survivors and restage this epoch under the next round number.
		s.cnt[cReassigns].Add(1)
		next := req
		next.Round++
		next.Deads = mergeDeads(req.Deads, newDeads)
		s.tr.Instant(obs.CatRecover, fmt.Sprintf("reassign round %d", next.Round), s.opSeq, s.clk.Now(), 0)
		// The op's server tag reaches survivors wherever they block:
		// mid-pull or waiting for the commit decision. This rebroadcast
		// doubles as the membership-epoch announcement, so it rides the
		// same tree as every other control broadcast.
		raw := encodeOpRequest(next)
		s.broadcastVerdict(next.Deads, raw)
		bufpool.Put(raw) // relayed by copy
		return &replanError{req: next}
	}

	if status != nil {
		s.abortOp(req, status, prepared)
		return status
	}

	// Every participant is PREPARED: decide. The decision records on the
	// master's disk are the linearization point of the write.
	if err := s.crashPoint("decide"); err != nil {
		if errors.Is(err, errOpCrashed) {
			// Per-op crash before anything is decided: the operation
			// aborts and rolls back cleanly; the server lives on.
			s.abortOp(req, err, prepared)
		}
		return err
	}
	var d0 time.Duration
	if s.tr.Enabled() {
		d0 = s.clk.Now()
	}
	for i, spec := range req.Specs {
		if err := storage.WriteDecision(s.disk, spec.Name+req.Suffix, req.Epochs[i]); err != nil {
			status = fmt.Errorf("core: master server: recording commit decision: %w", err)
			break
		}
	}
	if s.tr.Enabled() {
		s.tr.Span(obs.CatRecover, "commit decision", s.opSeq, d0, s.clk.Now(), 0)
	}
	if status != nil {
		s.abortOp(req, status, prepared)
		return status
	}

	s.broadcastVerdict(req.Deads, encodeStatus(msgCommit, req.Attempt, req.Round, nil))
	if err := s.crashPoint("commit"); err != nil {
		// The decision is durable: whether the operation or the whole
		// server dies here, the temps stay and read-time roll-forward
		// finishes the rename — old-or-new atomicity holds.
		return err
	}
	if err := s.commitPrepared(prepared); err != nil {
		// The decision is durable: this server's own rename failure is
		// repaired by read-time roll-forward, not by failing the op.
		s.tr.Instant(obs.CatRecover, "deferred commit: "+err.Error(), s.opSeq, s.clk.Now(), 0)
	}

	// Collect Committed acks. Stragglers, corpses and failed renames are
	// tolerated: the decision is durable, so an unacked server's epoch
	// rolls forward at read time.
	if gone, late, _ := s.collect(msgCommitted, req, deadline, nil, false); late || len(gone) > 0 {
		s.tr.Instant(obs.CatRecover, "commit acks incomplete", s.opSeq, s.clk.Now(), 0)
	}
	if len(req.Deads) > 0 {
		s.cnt[cDegraded].Add(1)
	}
	return nil
}

// waitCommit is the participant half: PREPARED, waiting for the
// coordinator's verdict. Commit and abort resolve the epoch; a
// reassignment request restarts the round (a *replanError); a timeout
// keeps the temps — never roll back on silence, because the decision
// may already be durable on the master and read-time roll-forward will
// finish the job.
func (s *Server) waitCommit(req opRequest, prepared []preparedArray, deadline time.Duration) error {
	waitBy := time.Duration(0)
	if deadline > 0 {
		waitBy = deadline + s.cfg.OpTimeout
	}
	for {
		m, rerr := s.recv(tagToServer(s.opSeq), waitBy)
		if rerr != nil {
			s.cnt[cTimeouts].Add(1)
			s.tr.Instant(obs.CatRecover, "commit verdict timeout (temps kept)", s.opSeq, s.clk.Now(), 0)
			return fmt.Errorf("core: server %d: waiting for commit verdict: %w", s.index, rerr)
		}
		switch kind, verr := s.verdict(m); kind {
		case vCommit:
			if err := s.crashPoint("commit"); err != nil {
				// Keep the temps (the decision is durable on the master),
				// skip the ack; roll-forward repairs.
				return err
			}
			cerr := s.commitPrepared(prepared)
			s.send(s.cfg.MasterServer(), tagDoneFor(s.opSeq), encodeStatus(msgCommitted, req.Attempt, req.Round, cerr))
			return cerr
		case vAbort:
			s.removePrepared(prepared)
			return verr
		case vReplan:
			return verr
		}
		// vStale, or vData: sub-chunk data from this round's pull retries.
	}
}

// Committed is storage's answer for where one server's share of an
// array's decided epoch lives on that server's disk, with the chunk
// list core reads it by.
type Committed storage.Committed

// ResolveCommitted finds which file on d holds base, one server's file
// of spec, at the decided epoch (storage.Resolve). A manifest written
// under another schema, or a pending epoch that does not verify, is
// ErrCorrupt; no file at all with no decision is ErrNoCommittedEpoch.
func ResolveCommitted(d storage.Disk, spec ArraySpec, base string, epoch uint64) (Committed, error) {
	c, err := storage.Resolve(d, base, epoch)
	return committed(Committed(c), err, spec, base, epoch)
}

// committed maps storage's answer for base at epoch onto core's typed
// errors and checks its manifest against spec.
func committed(c Committed, err error, spec ArraySpec, base string, epoch uint64) (Committed, error) {
	switch {
	case err != nil:
		return c, fmt.Errorf("%w (%v)", ErrCorrupt, err)
	case epoch == 0 && c.Name == "":
		return c, fmt.Errorf("%s: %w", base, ErrNoCommittedEpoch)
	case c.Manifest != nil && c.Manifest.SchemaSum != specFingerprint(spec):
		return c, fmt.Errorf("manifest of %s was written under a different schema: %w", c.Name, ErrCorrupt)
	}
	return c, nil
}

// Chunks lists the disk chunks c's file holds, in file order: its
// manifest's list, checked against spec, or for a legacy file server's
// share of the full house's layout over numServers.
func (c Committed) Chunks(spec ArraySpec, numServers, server int) ([]Placement, error) {
	switch {
	case c.Name == "":
		return nil, nil
	case c.Manifest != nil:
		return chunksFromManifest(spec, c.Manifest, server)
	}
	return shareOf(PlaceChunks(spec, numServers, nil), server), nil
}
