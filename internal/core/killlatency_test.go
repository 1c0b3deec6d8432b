package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/storage"
	"panda/internal/vtime"
)

// killlatency_test.go pins the failure-latency contract of the master's
// collections: once a participant is reported dead, the master's
// Complete leaves within a poll slice of the report — bounded by how
// fast death is *reported* (the transport, the lease), not by how long
// the operation was allowed to run.

// dyingComm is the victim's endpoint, or the view of it one of the
// victim's activities took (RebindComm). The first outgoing frame
// `last` accepts, whichever activity sends it, never leaves: the rank
// dies through the fault plan at that exact protocol point — every
// other rank's PeerLost reports it from that instant — and the time is
// recorded.
type dyingComm struct {
	*mpi.FaultComm
	*fate
}

// fate is what every view of the victim shares.
type fate struct {
	plan *mpi.FaultPlan
	clk  clock.Clock
	last func(frame []byte) bool
	died time.Duration // 0 while alive
}

func (d *dyingComm) Rebind(clk clock.Clock) mpi.Comm {
	return &dyingComm{FaultComm: d.FaultComm.Rebind(clk).(*mpi.FaultComm), fate: d.fate}
}

func (d *dyingComm) dieIf(frame []byte) {
	if d.died == 0 && len(frame) > 0 && d.last(frame) {
		d.plan.CrashRank(d.Rank())
		d.died = d.clk.Now()
	}
}

func (d *dyingComm) Send(to, tag int, data []byte) {
	d.dieIf(data)
	d.FaultComm.Send(to, tag, data)
}

func (d *dyingComm) SendOwned(to, tag int, data []byte) {
	d.dieIf(data)
	d.FaultComm.SendOwned(to, tag, data)
}

func (d *dyingComm) Isend(to, tag int, data []byte) mpi.Request {
	d.dieIf(data)
	return d.FaultComm.Isend(to, tag, data)
}

// nthFrame matches the n-th outgoing frame of the given type.
func nthFrame(n int, typ byte) func([]byte) bool {
	return func(frame []byte) bool {
		if frame[0] == typ {
			n--
		}
		return n == 0
	}
}

// killSim runs app on a fixed-shape deployment over simnet under
// virtual time, every endpoint behind one fault plan, with server 1
// dying at the frame `last` accepts. It returns each client's outcome,
// when the victim died, when the master server's Complete for the last
// operation left, and the master's counters.
func killSim(t *testing.T, cfg Config, disks []storage.Disk, last func([]byte) bool, app App) (errs []error, died, left time.Duration, master Stats) {
	t.Helper()
	sim := vtime.New()
	world := mpi.NewSimWorld(sim, cfg.WorldSize(), mpi.SP2Link())
	plan := mpi.NewFaultPlan(1)
	cfg.OpLog = func(sum OpSummary) {
		if sum.Server == 0 {
			left = sim.Now() // logged just before the Complete frame leaves
		}
	}
	errs = make([]error, cfg.NumClients)
	for r := 0; r < cfg.NumClients; r++ {
		r := r
		sim.Spawn(fmt.Sprintf("client%d", r), func(p *vtime.Proc) {
			clk := clock.NewVirtual(p)
			errs[r] = clientMain(cfg, mpi.WrapFault(world.Bind(r, p), plan, clk), clk, app)
		})
	}
	var victim *dyingComm
	for i := 0; i < cfg.NumServers; i++ {
		i := i
		sim.Spawn(fmt.Sprintf("server%d", i), func(p *vtime.Proc) {
			clk := clock.NewVirtual(p)
			var comm mpi.Comm = mpi.WrapFault(world.Bind(cfg.ServerRank(i), p), plan, clk)
			if i == 1 {
				victim = &dyingComm{FaultComm: comm.(*mpi.FaultComm), fate: &fate{plan: plan, clk: clk, last: last}}
				comm = victim
			}
			srv := NewServer(cfg, comm, disks[i], clk)
			_ = srv.Serve() // the victim's Serve fails however its death surfaced
			if i == 0 {
				master = srv.Stats()
			}
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if victim.died == 0 {
		t.Fatal("the victim never reached its kill point")
	}
	return errs, victim.died, left, master
}

// assertPrompt checks the latency bound itself.
func assertPrompt(t *testing.T, cfg Config, died, left time.Duration) {
	t.Helper()
	if lag := left - died; lag < 0 || lag > cfg.OpTimeout/4 {
		t.Fatalf("master's Complete left %v after the death report (died %v, left %v); want within OpTimeout/4 = %v",
			lag, died, left, cfg.OpTimeout/4)
	}
	t.Logf("died at %v, Complete left %v later (bound %v)", died, left-died, cfg.OpTimeout/4)
}

func killCfg() (Config, []ArraySpec) {
	cfg, specs := recoverySpecs(3, 2)
	cfg.OpTimeout = 8 * time.Second
	return cfg, specs
}

// TestKilledAfterPreparedCommitsPromptly: a participant dies after
// Prepared, with its Committed ack unsent. The decision is durable, so
// the write succeeds — as soon as the corpse is known, not after the
// ack budget.
func TestKilledAfterPreparedCommitsPromptly(t *testing.T) {
	cfg, specs := killCfg()
	disks := memDisks(cfg.NumServers)
	errs, died, left, _ := killSim(t, cfg, disks, nthFrame(1, msgCommitted), func(cl *Client) error {
		return cl.WriteArrays(".ckpt", specs, makeBufs(cl, specs, true))
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("client %d: write failed: %v", r, err)
		}
	}
	assertPrompt(t, cfg, died, left)
	if _, err := RunWith(cfg, plainComms(cfg), disks, func(cl *Client) error {
		got := makeBufs(cl, specs, false)
		if err := cl.ReadArrays(".ckpt", specs, got); err != nil {
			return err
		}
		return checkBufs(cl, specs, got)
	}); err != nil {
		t.Fatalf("reading the committed epoch back: %v", err)
	}
}

// TestKilledMidReadCompletesDegradedPromptly: a participant dies with
// its data scattered but its Done unsent. The read completes degraded
// and bit-exact as soon as the corpse is known.
func TestKilledMidReadCompletesDegradedPromptly(t *testing.T) {
	cfg, specs := killCfg()
	errs, died, left, master := killSim(t, cfg, memDisks(cfg.NumServers), nthFrame(1, msgDone), func(cl *Client) error {
		if err := cl.WriteArrays(".ckpt", specs, makeBufs(cl, specs, true)); err != nil {
			return err
		}
		got := makeBufs(cl, specs, false)
		if err := cl.ReadArrays(".ckpt", specs, got); err != nil {
			return err
		}
		return checkBufs(cl, specs, got)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", r, err)
		}
	}
	assertPrompt(t, cfg, died, left)
	if master.Degraded == 0 {
		t.Error("the read was not recorded as degraded")
	}
}

// TestKilledMidPlainWriteFailsTypedPromptly: a participant dies with a
// sub-chunk written and the next one's pulls half sent. A plain write
// cannot complete without it: every client gets ErrPeerLost, promptly.
func TestKilledMidPlainWriteFailsTypedPromptly(t *testing.T) {
	cfg, specs := killCfg()
	cfg.PlainWrites = true
	errs, died, left, master := killSim(t, cfg, memDisks(cfg.NumServers), nthFrame(3, msgSubReq), func(cl *Client) error {
		return cl.WriteArrays(".ckpt", specs, makeBufs(cl, specs, true))
	})
	for r, err := range errs {
		if !errors.Is(err, ErrPeerLost) {
			t.Fatalf("client %d: write returned %v, want ErrPeerLost", r, err)
		}
	}
	assertPrompt(t, cfg, died, left)
	if master.Aborts == 0 {
		t.Error("no abort broadcast recorded")
	}
}

// TestKilledParticipantOverHubCompletesPromptly is the real-time smoke
// of the same bound over real hub death notices, for each way the
// master and the victim can be attached (dialed or hub-local): server 1
// dies holding the commit verdict — its process gone, its link closed —
// and the write still succeeds well inside one OpTimeout.
func TestKilledParticipantOverHubCompletesPromptly(t *testing.T) {
	for _, shape := range []struct {
		name                     string
		masterLocal, victimLocal bool
	}{{"DD", false, false}, {"DL", false, true}, {"LD", true, false}, {"LL", true, true}} {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			t.Parallel()
			cfg, specs := recoverySpecs(2, 2)
			cfg.OpTimeout = 4 * time.Second
			var fired atomic.Bool
			cfg.crashHook = func(server int, point string) error {
				if server == 1 && point == "commit" && fired.CompareAndSwap(false, true) {
					return errors.New("injected crash")
				}
				return nil
			}
			local := map[int]bool{cfg.ServerRank(0): shape.masterLocal, cfg.ServerRank(1): shape.victimLocal}
			comms, shut, err := hubWorld(cfg, func(r int) bool { return local[r] })
			if err != nil {
				t.Fatal(err)
			}

			disks := memDisks(cfg.NumServers)
			werrs := make([]error, cfg.NumClients)
			took := make([]time.Duration, cfg.NumClients)
			var wg sync.WaitGroup
			for r := 0; r < cfg.WorldSize(); r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					defer mpi.CloseComm(comms[r]) // a dead process's link closes
					if cfg.IsServer(r) {
						_ = runServerNode(cfg, comms[r], disks[cfg.ServerIndex(r)])
						return
					}
					_ = runClientNode(cfg, comms[r], func(cl *Client) error {
						t0 := time.Now()
						werrs[r] = cl.WriteArrays(".ckpt", specs, makeBufs(cl, specs, true))
						took[r] = time.Since(t0)
						return nil
					})
				}(r)
			}
			wg.Wait()
			if err := shut(); err != nil {
				t.Errorf("hub: %v", err)
			}
			if !fired.Load() {
				t.Fatal("the crash point never fired")
			}
			for r := range werrs {
				if werrs[r] != nil {
					t.Errorf("client %d: write failed: %v", r, werrs[r])
				}
				if took[r] >= cfg.OpTimeout {
					t.Errorf("client %d: write took %v; the master sat out its ack budget (OpTimeout %v)", r, took[r], cfg.OpTimeout)
				}
			}
		})
	}
}

// TestVerdictClassifiesCoordinatorFrames drives verdict — the one place
// a participant reads the master's answer — through every kind of frame
// that can arrive on an operation's server tag.
func TestVerdictClassifiesCoordinatorFrames(t *testing.T) {
	cfg, specs := recoverySpecs(3, 2)
	const seq, attempt, round = 7, 1, 1
	replan := func(s uint32, a, r uint16) []byte {
		return encodeOpRequest(opRequest{Op: opWrite, Seq: s, Attempt: a, Round: r, Specs: specs, Epochs: []uint64{1}, Deads: []int{0}})
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		want  verdictKind
	}{
		{"commit of this round", encodeStatus(msgCommit, attempt, round, nil), vCommit},
		{"commit of a stale round", encodeStatus(msgCommit, attempt, round-1, nil), vStale},
		{"commit of a stale attempt", encodeStatus(msgCommit, attempt-1, round, nil), vStale},
		{"abort of a stale attempt", encodeAbort(attempt-1, round, ErrTimeout), vStale},
		{"abort with a cause", encodeAbort(attempt, round, ErrPeerLost), vAbort},
		{"abort with a nil cause", encodeAbort(attempt, round, nil), vAbort},
		{"abort from another round of this attempt", encodeAbort(attempt, round+1, ErrTimeout), vAbort},
		{"replan to the next round", replan(seq, attempt, round+1), vReplan},
		{"replan to the current round", replan(seq, attempt, round), vStale},
		{"replan of another operation", replan(seq+1, attempt, round+1), vStale},
		{"malformed abort", []byte{msgAbort, 0}, vData},
		{"malformed replan", []byte{msgOpRequest, 0xff}, vData},
		{"sub-chunk data", []byte{msgSubData, 1, 2, 3}, vData},
		{"empty frame", nil, vData},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Server 1 is a leaf of the flat control tree: verdict relays to nobody.
			s := NewServer(cfg, mpi.NewWorld(cfg.WorldSize()).Comm(cfg.ServerRank(1)), nil, clock.NewReal())
			s.opSeq, s.curAttempt, s.curRound = seq, attempt, round
			kind, err := s.verdict(mpi.Message{Source: cfg.MasterServer(), Tag: tagToServer(seq), Data: append([]byte(nil), tc.frame...)})
			if kind != tc.want {
				t.Fatalf("verdict = %d (err %v), want %d", kind, err, tc.want)
			}
			var ab *abortedError
			var re *replanError
			switch kind {
			case vAbort:
				if !errors.As(err, &ab) || ab.cause == nil {
					t.Fatalf("abort carries %v, want an *abortedError with a cause", err)
				}
				if tc.name == "abort with a cause" && !errors.Is(err, ErrPeerLost) {
					t.Fatalf("abort lost its typed cause: %v", err)
				}
			case vReplan:
				if !errors.As(err, &re) || re.req.Round != round+1 || len(re.req.Deads) != 1 {
					t.Fatalf("replan carries %v", err)
				}
			default:
				if err != nil {
					t.Fatalf("unexpected error %v", err)
				}
			}
			if aborts := s.Stats().Aborts; (aborts == 1) != (kind == vAbort) {
				t.Fatalf("Aborts = %d after verdict kind %d: only an accepted abort counts", aborts, kind)
			}
		})
	}
}
