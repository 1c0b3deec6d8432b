package core

import (
	"errors"
	"fmt"
	"time"

	"panda/internal/bufpool"
	"panda/internal/mpi"
	"panda/internal/obs"
)

// The per-operation control plane — the paper's step 5, "servers report
// completion to the master server, which informs the master client" —
// decided once each: collect is how the master waits for its
// participants, verdict how a participant reads the master's answer,
// serverGone the one liveness test, abortOp the one way to fail an
// attempt. Callers keep only their policy.

// serverGone reports whether server i can no longer take part: the
// transport saw it die, or the membership layer declared it gone
// (its control connection ended or its lease lapsed) or removed it.
func (s *Server) serverGone(i int) bool {
	return s.comm.PeerLost(s.cfg.ServerRank(i)) || (s.cfg.Members != nil && s.cfg.Members.Gone(i))
}

// collect waits on the master for one status frame of type typ (Done,
// Prepared or Committed) from every participant of req that is not, and
// does not become, gone. Frames of another type, attempt or round and
// repeats from one server are skipped; the first error — status as
// passed in, then a participant's — wins. It returns the participants
// found gone before they reported, whether the wait itself failed with
// live participants still silent, and the status. eager ends the wait at
// the first error or death (prepares: nothing can commit after either);
// otherwise every live participant is heard out, since without an abort
// broadcast nothing else would unstick a straggler.
//
// With a deadline the wait gets half an OpTimeout of slack beyond it — a
// peer that hit its own deadline needs a moment for its report to
// arrive — and is cut into OpTimeout/8 slices: liveness is checked up
// front and whenever a slice comes back empty, so a death ends the wait
// within a slice of its report, not when the budget runs out. Without
// one each wait is unbounded and the clock is never read.
func (s *Server) collect(typ byte, req opRequest, deadline time.Duration, status error, eager bool) (gone []int, late bool, _ error) {
	var collectBy, waitBy time.Duration
	if deadline > 0 {
		collectBy = deadline + s.cfg.OpTimeout/2
	}
	dead := deadSet(req.Deads)
	waiting := make([]bool, s.cfg.NumServers)
	missing := 0
	for i := range waiting {
		if i != s.index && !dead[i] {
			waiting[i] = true
			missing++
		}
	}
	sweep := func() (found bool) {
		for i, w := range waiting {
			if w && s.serverGone(i) {
				waiting[i], found = false, true
				missing--
				gone = append(gone, i)
			}
		}
		return found
	}
	sweep()
	for missing > 0 && !(eager && (status != nil || len(gone) > 0)) {
		if collectBy > 0 {
			waitBy = min(collectBy, s.clk.Now()+s.cfg.OpTimeout/8)
		}
		m, rerr := s.recv(tagDoneFor(s.opSeq), waitBy)
		if rerr != nil {
			if sweep() || (errors.Is(rerr, ErrTimeout) && s.clk.Now() < collectBy) {
				continue // a death accounted for, or only the slice expired
			}
			// Whoever is still silent is alive but late.
			if late = true; status == nil {
				status = fmt.Errorf("core: master server: waiting for server reports: %w", rerr)
			}
			break
		}
		r := rbuf{b: m.Data}
		t := r.u8()
		frame, derr := decodeStatus(&r)
		src := s.cfg.ServerIndex(m.Source)
		switch {
		case derr != nil:
			frame.Err = derr
		case t != typ || frame.Attempt != req.Attempt || frame.Round != req.Round:
			continue // stale: an abandoned attempt, an earlier round or phase
		case src < 0 || src >= len(waiting) || !waiting[src]:
			continue // a repeat, or not a participant
		default:
			waiting[src] = false
			missing--
		}
		if frame.Err != nil && status == nil {
			status = frame.Err
		}
	}
	return gone, late, status
}

// abortOp fails the current attempt from the master: the abort
// broadcast unsticks every participant still pulling or awaiting a
// verdict, and the master's own staged epochs are scrapped.
func (s *Server) abortOp(req opRequest, cause error, prepared []preparedArray) {
	s.cnt[cAborts].Add(1)
	s.tr.Instant(obs.CatCtl, "abort broadcast", s.opSeq, s.clk.Now(), 0)
	s.broadcastVerdict(req.Deads, encodeAbort(req.Attempt, req.Round, cause))
	s.removePrepared(prepared)
}

// verdictKind classifies a frame received on an operation's server tag.
type verdictKind uint8

const (
	vData   verdictKind = iota // not a (readable) coordinator frame: untouched, the caller's to decode or reject
	vStale                     // a verdict on an attempt or round this server already left
	vAbort                     // the error is the *abortedError
	vCommit                    // the current round is decided
	vReplan                    // the error is the *replanError carrying the next round's request
)

// verdict reads the master's answer out of a frame received on
// tagToServer(opSeq). A coordinator frame is relayed down the control
// tree before anything acts on it — the subtree must learn the outcome
// even if this node unwinds or crashes next — then recycled and checked
// against the attempt and round this server is executing.
func (s *Server) verdict(m mpi.Message) (verdictKind, error) {
	r := rbuf{b: m.Data}
	switch typ := r.u8(); typ {
	case msgAbort, msgCommit:
		frame, derr := decodeStatus(&r)
		if derr != nil {
			break
		}
		s.broadcastVerdict(s.curDeads, m.Data)
		bufpool.Put(m.Data)
		switch {
		case typ == msgCommit && frame.Attempt == s.curAttempt && frame.Round == s.curRound:
			return vCommit, nil
		case typ == msgAbort && frame.Attempt >= s.curAttempt:
			s.cnt[cAborts].Add(1)
			if frame.Err == nil {
				frame.Err = errors.New("core: operation aborted")
			}
			return vAbort, &abortedError{cause: frame.Err}
		}
		return vStale, nil
	case msgOpRequest:
		// A replanning round: a participant died and the master
		// rebroadcast the request; its tree is over the new alive set.
		nreq, derr := decodeOpRequest(m.Data)
		if derr != nil {
			break
		}
		s.broadcastVerdict(nreq.Deads, m.Data)
		bufpool.Put(m.Data) // decode copies everything out
		if nreq.Seq == uint32(s.opSeq) && nreq.Attempt == s.curAttempt && nreq.Round > s.curRound {
			return vReplan, &replanError{req: nreq}
		}
		return vStale, nil
	}
	return vData, nil
}
