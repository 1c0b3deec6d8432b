package baseline

import (
	"fmt"
	"time"

	"panda/internal/array"
	"panda/internal/clock"
	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/storage"
	"panda/internal/vtime"
)

// bTagBarrier separates the client barrier from redistribution pieces.
const bTagBarrier = 23

// bTagPieceBase tags two-phase redistribution pieces; array i uses tag
// bTagPieceBase+i so a fast client's pieces for the next array wait in
// the mailbox instead of confusing the current exchange.
const bTagPieceBase = 100

// Client is a compute node's endpoint for a baseline strategy. It
// mirrors core.Client's API so the harness can drive either through the
// same shape of code.
type Client struct {
	strategy Strategy
	ctx      clientCtx
	elapsed  time.Duration
	requests int64
}

// Rank returns the client's rank.
func (b *Client) Rank() int { return b.ctx.comm.Rank() }

// LastElapsed reports time spent in the most recent collective call.
func (b *Client) LastElapsed() time.Duration { return b.elapsed }

// ReorgBytes reports bytes moved by strided copies so far.
func (b *Client) ReorgBytes() int64 { return b.ctx.reorgBytes }

// Requests reports file requests issued so far.
func (b *Client) Requests() int64 { return b.requests }

// WriteArrays collectively writes the arrays under the baseline
// strategy. File layout is identical to Panda's.
func (b *Client) WriteArrays(suffix string, specs []core.ArraySpec, bufs [][]byte) error {
	return b.collective(true, suffix, specs, bufs)
}

// ReadArrays collectively reads the arrays under the baseline strategy.
func (b *Client) ReadArrays(suffix string, specs []core.ArraySpec, bufs [][]byte) error {
	return b.collective(false, suffix, specs, bufs)
}

func (b *Client) collective(write bool, suffix string, specs []core.ArraySpec, bufs [][]byte) error {
	start := b.ctx.clk.Now()
	defer func() { b.elapsed = b.ctx.clk.Now() - start }()

	if len(bufs) != len(specs) {
		return fmt.Errorf("baseline: %d buffers for %d arrays", len(bufs), len(specs))
	}
	for i, spec := range specs {
		if err := spec.Validate(b.ctx.cfg); err != nil {
			return err
		}
		var err error
		switch b.strategy {
		case ClientDirected:
			err = b.clientDirected(write, suffix, spec, bufs[i])
		case TwoPhase:
			err = b.twoPhase(write, i, suffix, spec, bufs[i])
		default:
			err = fmt.Errorf("baseline: unknown strategy %d", b.strategy)
		}
		if err != nil {
			return err
		}
	}
	b.ctx.barrier()
	return nil
}

// clientDirected issues this client's own strided requests directly.
func (b *Client) clientDirected(write bool, suffix string, spec core.ArraySpec, buf []byte) error {
	chunk := spec.MemChunk(b.Rank())
	if chunk.IsEmpty() {
		return nil
	}
	if write {
		return b.countReqs(func() error {
			return b.ctx.writeTargets(spec, suffix, chunk, buf, chunk)
		})
	}
	return b.countReqs(func() error {
		return b.ctx.readTargets(spec, suffix, chunk, buf, chunk)
	})
}

// twoPhase permutes through the conforming distribution, then does
// large contiguous file requests.
func (b *Client) twoPhase(write bool, arrayIdx int, suffix string, spec core.ArraySpec, buf []byte) error {
	conf, err := conformingSchema(spec, b.ctx.cfg.NumClients)
	if err != nil {
		return err
	}
	myConf := conf.Chunk(b.Rank())
	confBuf := make([]byte, myConf.NumElems()*int64(spec.ElemSize))

	if write {
		// Phase 1: memory → conforming permutation.
		if err := b.redistribute(arrayIdx, spec, spec.Mem, buf, conf, confBuf); err != nil {
			return err
		}
		// Phase 2: large contiguous writes.
		if myConf.IsEmpty() {
			return nil
		}
		return b.countReqs(func() error {
			return b.ctx.writeTargets(spec, suffix, myConf, confBuf, myConf)
		})
	}
	// Reads run the phases in reverse.
	if !myConf.IsEmpty() {
		if err := b.countReqs(func() error {
			return b.ctx.readTargets(spec, suffix, myConf, confBuf, myConf)
		}); err != nil {
			return err
		}
	}
	return b.redistribute(arrayIdx, spec, conf, confBuf, spec.Mem, buf)
}

func (b *Client) countReqs(fn func() error) error {
	// writeTargets/readTargets issue one request per file run; count
	// them by differencing the comm stats we keep in ctx.
	before := b.ctx.requests
	err := fn()
	b.requests += b.ctx.requests - before
	return err
}

// redistribute moves this client's data from its chunk of src to the
// owners under dst, and assembles its own dst chunk from the other
// clients, using peer-to-peer messages.
func (b *Client) redistribute(arrayIdx int, spec core.ArraySpec, src array.Schema, srcBuf []byte,
	dst array.Schema, dstBuf []byte) error {
	r := b.Rank()
	nc := b.ctx.cfg.NumClients
	mySrc := src.Chunk(r)
	myDst := dst.Chunk(r)
	tag := bTagPieceBase + arrayIdx

	// Local part first.
	if sect, ok := array.Intersect(mySrc, myDst); ok {
		_, contig := array.ContiguousIn(myDst, sect)
		array.CopyRegion(dstBuf, myDst, srcBuf, mySrc, sect, spec.ElemSize)
		if !contig {
			b.ctx.chargeReorg(sect.NumElems() * int64(spec.ElemSize))
		}
	}

	// Send my pieces to their new owners.
	for c := 0; c < nc; c++ {
		if c == r {
			continue
		}
		sect, ok := array.Intersect(mySrc, dst.Chunk(c))
		if !ok {
			continue
		}
		payload := b.ctx.extract(spec, mySrc, srcBuf, sect)
		msg := encodePiece(sect, payload)
		b.ctx.comm.SendOwned(c, tag, msg)
	}

	// Receive the pieces of my dst chunk held by others.
	expect := 0
	for c := 0; c < nc; c++ {
		if c == r {
			continue
		}
		if _, ok := array.Intersect(src.Chunk(c), myDst); ok {
			expect++
		}
	}
	for i := 0; i < expect; i++ {
		m := b.ctx.comm.Recv(mpi.AnySource, tag)
		sect, payload, err := decodePiece(m.Data)
		if err != nil {
			return err
		}
		b.ctx.deposit(spec, myDst, dstBuf, sect, payload)
	}
	return nil
}

func encodePiece(sect array.Region, payload []byte) []byte {
	b := make([]byte, 0, 2+8*sect.Rank()+len(payload))
	b = append(b, bPeerPiece, byte(sect.Rank()))
	for d := 0; d < sect.Rank(); d++ {
		b = appendU32(b, uint32(sect.Lo[d]))
		b = appendU32(b, uint32(sect.Hi[d]))
	}
	return append(b, payload...)
}

func decodePiece(b []byte) (array.Region, []byte, error) {
	if len(b) < 2 || b[0] != bPeerPiece {
		return array.Region{}, nil, fmt.Errorf("baseline: malformed piece")
	}
	rank := int(b[1])
	need := 2 + 8*rank
	if len(b) < need {
		return array.Region{}, nil, fmt.Errorf("baseline: truncated piece")
	}
	lo := make([]int, rank)
	hi := make([]int, rank)
	off := 2
	for d := 0; d < rank; d++ {
		lo[d] = int(readU32(b[off:]))
		hi[d] = int(readU32(b[off+4:]))
		off += 8
	}
	return array.Region{Lo: lo, Hi: hi}, b[need:], nil
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func readU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// App is the per-client application for a baseline run.
type App func(cl *Client) error

func clientMain(strategy Strategy, cfg core.Config, comm mpi.Comm, clk clock.Clock, app App) (*Client, error) {
	cl := &Client{strategy: strategy, ctx: clientCtx{cfg: cfg, comm: comm, clk: clk}}
	err := app(cl)
	for i := 0; i < cfg.NumServers; i++ {
		comm.Send(cfg.ServerRank(i), bTagReq, encodeFileReq(bReqShutdown, "", 0, 0, nil))
	}
	return cl, err
}

// SimResult reports a simulated baseline run.
type SimResult struct {
	Elapsed       time.Duration
	ClientElapsed []time.Duration
	ReorgBytes    int64
	Requests      int64
	DiskStats     []storage.DiskStats
}

// MaxClientElapsed is the paper's elapsed-time metric.
func (r SimResult) MaxClientElapsed() time.Duration {
	var m time.Duration
	for _, e := range r.ClientElapsed {
		if e > m {
			m = e
		}
	}
	return m
}

// RunSim executes a baseline deployment under virtual time on the
// simulated SP2.
func RunSim(strategy Strategy, cfg core.Config, link mpi.LinkConfig, mkDisk core.DiskFactory, app App) (SimResult, error) {
	res := SimResult{}
	if err := cfg.Validate(); err != nil {
		return res, err
	}
	sim := vtime.New()
	world := mpi.NewSimWorld(sim, cfg.WorldSize(), link)
	res.ClientElapsed = make([]time.Duration, cfg.NumClients)
	res.DiskStats = make([]storage.DiskStats, cfg.NumServers)
	errs := make([]error, cfg.WorldSize())

	for r := 0; r < cfg.NumClients; r++ {
		r := r
		sim.Spawn(fmt.Sprintf("bclient%d", r), func(p *vtime.Proc) {
			clk := clock.NewVirtual(p)
			cl, err := clientMain(strategy, cfg, world.Bind(r, p), clk, app)
			errs[r] = err
			res.ClientElapsed[r] = cl.LastElapsed()
			res.ReorgBytes += cl.ReorgBytes()
			res.Requests += cl.Requests()
		})
	}
	for i := 0; i < cfg.NumServers; i++ {
		i := i
		sim.Spawn(fmt.Sprintf("bserver%d", i), func(p *vtime.Proc) {
			clk := clock.NewVirtual(p)
			rank := cfg.ServerRank(i)
			disk := mkDisk(i, clk)
			errs[rank] = ServeFiles(cfg, world.Bind(rank, p), disk)
			if sd, ok := disk.(*storage.SimDisk); ok {
				res.DiskStats[i] = sd.Stats()
			}
		})
	}
	if err := sim.Run(); err != nil {
		return res, err
	}
	res.Elapsed = sim.Now()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}
