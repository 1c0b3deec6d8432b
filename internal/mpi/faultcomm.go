package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"panda/internal/clock"
)

// FaultPlan is the shared configuration and bookkeeping for a set of
// FaultComm endpoints — the transport analogue of storage.FaultDisk.
// One plan is shared by every rank of a deployment so crash state is
// globally visible and the statistics aggregate across the world.
//
// Probabilities are evaluated per message on a seeded rng, so a chaos
// schedule is reproducible given its seed. All methods are safe for
// concurrent use.
type FaultPlan struct {
	mu  sync.Mutex
	rng *rand.Rand

	// DropProb is the probability a Send is silently discarded.
	DropProb float64
	// DupProb is the probability a Send is delivered twice.
	DupProb float64
	// DelayProb is the probability a Send is held for Delay before
	// delivery (charged on the endpoint's clock, so it is virtual-time
	// aware in simulations).
	DelayProb float64
	// Delay is the hold applied to delayed messages.
	Delay time.Duration
	// ReorderProb is the probability a Send is held back and emitted
	// after the sender's next Send, swapping adjacent messages.
	ReorderProb float64

	crashed    map[int]bool
	crashAfter map[int]int
	stats      FaultStats
}

// FaultStats counts the faults a plan has injected.
type FaultStats struct {
	Dropped      int64 // messages discarded by DropProb
	Duplicated   int64 // extra deliveries from DupProb
	Delayed      int64 // messages held for Delay
	Reordered    int64 // adjacent swaps from ReorderProb
	CrashedSends int64 // sends discarded because an endpoint crashed
}

// NewFaultPlan returns a plan with no faults enabled, seeded for
// reproducible schedules. Set the probability fields before wrapping
// endpoints, or at any quiesced moment between operations.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{rng: rand.New(rand.NewSource(seed)),
		crashed: make(map[int]bool), crashAfter: make(map[int]int)}
}

// CrashAfterSends arms a deterministic mid-operation crash: rank's next
// n sends are delivered normally, then the rank is crashed exactly as
// by CrashRank. Unlike the probabilistic knobs this places the failure
// at a repeatable point in the protocol, which is what recovery tests
// need to sweep crash sites.
func (p *FaultPlan) CrashAfterSends(rank, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashAfter[rank] = n
}

// CrashRank marks a rank dead: its endpoint's sends are discarded, its
// receives fail with ErrPeerLost, and other ranks observe it via
// PeerLost. The crash is permanent until Heal.
func (p *FaultPlan) CrashRank(rank int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashed[rank] = true
}

// Crashed reports whether rank has been crashed.
func (p *FaultPlan) Crashed(rank int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed[rank]
}

// Heal clears all probabilities and revives crashed ranks, restoring a
// perfect network — mirroring storage.FaultDisk.Heal.
func (p *FaultPlan) Heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.DropProb, p.DupProb, p.DelayProb, p.ReorderProb = 0, 0, 0, 0
	p.crashed = make(map[int]bool)
	p.crashAfter = make(map[int]int)
}

// Stats returns a snapshot of the injected-fault counters.
func (p *FaultPlan) Stats() FaultStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// roll draws the fate of one send. It centralizes rng use under the
// plan lock so concurrent ranks cannot race the generator.
func (p *FaultPlan) roll(from, to int) (verdict sendVerdict) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n, ok := p.crashAfter[from]; ok {
		if n <= 0 {
			delete(p.crashAfter, from)
			p.crashed[from] = true
		} else {
			p.crashAfter[from] = n - 1
		}
	}
	if p.crashed[from] || p.crashed[to] {
		p.stats.CrashedSends++
		return sendVerdict{drop: true}
	}
	if p.DropProb > 0 && p.rng.Float64() < p.DropProb {
		p.stats.Dropped++
		return sendVerdict{drop: true}
	}
	if p.DupProb > 0 && p.rng.Float64() < p.DupProb {
		p.stats.Duplicated++
		verdict.dup = true
	}
	if p.DelayProb > 0 && p.rng.Float64() < p.DelayProb {
		p.stats.Delayed++
		verdict.delay = p.Delay
	}
	if p.ReorderProb > 0 && p.rng.Float64() < p.ReorderProb {
		p.stats.Reordered++
		verdict.hold = true
	}
	return verdict
}

type sendVerdict struct {
	drop  bool
	dup   bool
	hold  bool
	delay time.Duration
}

// FaultComm wraps one rank's endpoint and applies its plan's faults to
// outgoing messages between ranks; a message a rank sends itself is a
// loopback, not a link, and is delivered untouched. The inner endpoint
// must support deadlines. Like every Comm, a FaultComm is driven by one
// activity: another activity of the same rank takes its own view
// (RebindComm), which shares the plan and holds back its own reorders.
// It is an interposer (comm.go): the plan must see every frame whole,
// so it has no Unwrap and hides its endpoint's fast paths.
type FaultComm struct {
	inner DeadlineComm
	plan  *FaultPlan
	clk   clock.Clock
	held  *heldSend // reordering: previous send awaiting the next one
}

type heldSend struct {
	to, tag int
	data    []byte
}

// WrapFault wraps inner with fault injection governed by plan. clk
// charges injected delays, so pass the node's own clock (virtual in
// simulations). inner must implement DeadlineComm.
func WrapFault(inner Comm, plan *FaultPlan, clk clock.Clock) *FaultComm {
	dc, ok := inner.(DeadlineComm)
	if !ok {
		panic(fmt.Sprintf("mpi: %T does not support deadlines; cannot inject faults", inner))
	}
	return &FaultComm{inner: dc, plan: plan, clk: clk}
}

func (c *FaultComm) Rank() int { return c.inner.Rank() }
func (c *FaultComm) Size() int { return c.inner.Size() }

// Rebind returns the view of this endpoint for the activity driven by
// clk: the inner endpoint rebound to it (RebindComm), the same plan, its
// own clock for injected delays and its own held-back send.
func (c *FaultComm) Rebind(clk clock.Clock) Comm {
	return &FaultComm{inner: RebindComm(c.inner, clk).(DeadlineComm), plan: c.plan, clk: clk}
}

// linkErr reports this rank crashed, else the inner link's failure: what
// a routed view over the endpoint fails its receives with.
func (c *FaultComm) linkErr() error {
	if c.plan.Crashed(c.Rank()) {
		return fmt.Errorf("rank %d crashed", c.Rank())
	}
	return linkErrOf(c.inner)
}

// deliver pushes one message through the fault pipeline.
func (c *FaultComm) deliver(to, tag int, data []byte, owned bool) {
	if to == c.Rank() {
		if owned {
			c.inner.SendOwned(to, tag, data)
		} else {
			c.inner.Send(to, tag, data)
		}
		return
	}
	v := c.plan.roll(c.Rank(), to)
	if v.drop {
		return
	}
	if v.delay > 0 {
		// Holding the sender is the cheapest faithful model: the paper's
		// transports are ordered per pair, so a delayed message delays
		// everything behind it too — exactly a slow link.
		c.clk.Sleep(v.delay)
	}
	send := func(d []byte) {
		cp := make([]byte, len(d))
		copy(cp, d)
		c.inner.SendOwned(to, tag, cp)
	}
	if v.hold {
		// Emit the previously held message (if any) after this one.
		prev := c.held
		if owned {
			c.held = &heldSend{to: to, tag: tag, data: data}
		} else {
			cp := make([]byte, len(data))
			copy(cp, data)
			c.held = &heldSend{to: to, tag: tag, data: cp}
		}
		if prev != nil {
			c.inner.SendOwned(prev.to, prev.tag, prev.data)
		}
		return
	}
	if prev := c.held; prev != nil {
		c.held = nil
		// The held message goes out after the current one: swap.
		send(data)
		c.inner.SendOwned(prev.to, prev.tag, prev.data)
		if v.dup {
			send(data)
		}
		return
	}
	send(data)
	if v.dup {
		send(data)
	}
}

func (c *FaultComm) Send(to, tag int, data []byte) {
	c.deliver(to, tag, data, false)
}

func (c *FaultComm) SendOwned(to, tag int, data []byte) {
	c.deliver(to, tag, data, true)
}

func (c *FaultComm) Isend(to, tag int, data []byte) Request {
	c.deliver(to, tag, data, false)
	return doneRequest{}
}

// crashPollQuantum bounds how long a blocked receive can overlook a
// freshly injected crash: unbounded and long waits are sliced into
// quanta so the crash map is re-consulted between slices.
const crashPollQuantum = 10 * time.Millisecond

func (c *FaultComm) Recv(from, tag int) Message {
	m, err := c.RecvTimeout(from, tag, 0)
	if err != nil {
		panic(fmt.Sprintf("mpi: faulty recv on rank %d: %v", c.Rank(), err))
	}
	return m
}

// RecvTimeout implements DeadlineComm. A receive on a crashed rank —
// this one, or a specific awaited peer — fails with ErrPeerLost.
func (c *FaultComm) RecvTimeout(from, tag int, timeout time.Duration) (Message, error) {
	deadline := time.Duration(0)
	if timeout > 0 {
		deadline = c.clk.Now() + timeout
	}
	for {
		if err := c.checkCrash(from); err != nil {
			return Message{}, err
		}
		slice := crashPollQuantum
		if deadline > 0 {
			left := deadline - c.clk.Now()
			if left <= 0 {
				return Message{}, ErrTimeout
			}
			if left < slice {
				slice = left
			}
		}
		m, err := c.inner.RecvTimeout(from, tag, slice)
		if err == nil {
			return m, nil
		}
		if !errors.Is(err, ErrTimeout) {
			return Message{}, err
		}
	}
}

func (c *FaultComm) checkCrash(from int) error {
	if c.plan.Crashed(c.Rank()) {
		return fmt.Errorf("mpi: rank %d crashed: %w", c.Rank(), ErrPeerLost)
	}
	if from != AnySource && c.plan.Crashed(from) {
		return fmt.Errorf("mpi: rank %d crashed: %w", from, ErrPeerLost)
	}
	return nil
}

// PeerLost implements PeerChecker, combining injected crashes with
// whatever the inner transport observes.
func (c *FaultComm) PeerLost(rank int) bool {
	if c.plan.Crashed(rank) {
		return true
	}
	if pc, ok := c.inner.(PeerChecker); ok {
		return pc.PeerLost(rank)
	}
	return false
}
