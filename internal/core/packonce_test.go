package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"panda/internal/array"
	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/obs"
	"panda/internal/storage"
)

// packOnceSpecs is one array per strided arm of the data path, both in
// bench/'s inproc_reorg geometry (16-byte runs): "gather" keeps *,*,BLOCK
// memory over BLOCK,*,* disk, so the server's read mover packs every
// piece out of its sub-chunk; "serve" is the transpose, so the client's
// write responder packs every piece out of its chunk.
func packOnceSpecs() []ArraySpec {
	shape := []int{64, 16, 8}
	cols := array.MustSchema(shape, []array.Dist{array.Star, array.Star, array.Block}, []int{2})
	rows := array.MustSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{2})
	return []ArraySpec{
		{Name: "gather", ElemSize: 4, Mem: cols, Disk: rows},
		{Name: "serve", ElemSize: 4, Mem: rows, Disk: cols},
	}
}

// packOnceTraffic is what one write + read of packOnceSpecs costs the
// whole deployment when every piece travels as a frame — on the simulated
// and socket transports, and in process with nothing borrowed — the
// values the two-copy path (Extract into a scratch buffer, then sendVec)
// measured for the same operations: a piece packed straight into its
// frame is the same message of the same bytes.
var packOnceTraffic = map[string]int64{
	"msgs_sent":   84,
	"bytes_sent":  134056,
	"reorg_bytes": 131072,
}

// packOnceFrames is how many strided pieces that write + read sends,
// each packed into its frame.
const packOnceFrames = 24

// packOnceBorrowable is how many pieces of that write lie contiguous in
// their client's chunk: the "gather" array's sixteen, which an in-process
// server may copy straight out of a posted write (borrow).
const packOnceBorrowable = 16

// packOnceRounds runs a deployment that writes and reads back
// packOnceSpecs rounds times, verifying every read bit for bit, and
// returns its registry, the write bytes its servers borrowed (their
// zero_copy_bytes: the rest of the registry's are the clients' placed
// reads) and how many pool buffers it left checked out. With postFirst
// every other client's write is submitted, and so posted, before the
// master client's request starts the servers.
func packOnceRounds(t *testing.T, rounds int, postFirst bool, run func(cfg Config, app App) error) (reg *obs.Registry, borrowed, live int64) {
	t.Helper()
	specs := packOnceSpecs()
	reg = obs.NewRegistry()
	cfg := Config{NumClients: 2, NumServers: 2, SubchunkBytes: 4 << 10, Metrics: reg}
	posted := make(chan struct{}, rounds*cfg.NumClients)
	var placed atomic.Int64
	got0, put0, _ := bufpool.Stats()
	err := run(cfg, func(cl *Client) error {
		for k := 0; k < rounds; k++ {
			if postFirst && cl.IsMaster() {
				for i := 1; i < cfg.NumClients; i++ {
					<-posted
				}
			}
			h, err := cl.SubmitWrite("", "", specs, makeBufs(cl, specs, true))
			if err != nil {
				return err
			}
			if !cl.IsMaster() {
				posted <- struct{}{}
			}
			if err := h.Await(); err != nil {
				return err
			}
			got := makeBufs(cl, specs, false)
			if err := cl.ReadArrays("", specs, got); err != nil {
				return err
			}
			if err := checkBufs(cl, specs, got); err != nil {
				return fmt.Errorf("round %d: %w", k, err)
			}
		}
		placed.Add(cl.Stats().ZeroCopyBytes)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, put, _ := bufpool.Stats()
	return reg, reg.Counter("zero_copy_bytes").Value() - placed.Load(), (got - got0) - (put - put0)
}

// borrowedPieces checks one write + read of packOnceSpecs against
// packOnceTraffic, given the bytes its servers borrowed, and returns how
// many pieces were borrowed. A borrowed piece sent neither its pull nor
// its data frame, so the messages saved are two per borrowed piece and
// the bytes saved are those frames' — both headers and the payload —
// under any schedule; every byte is still deposited once, so
// reorg_bytes does not move.
func borrowedPieces(t *testing.T, reg *obs.Registry, borrowed int64) int64 {
	t.Helper()
	reg3 := array.Region{Lo: []int{0, 0, 0}, Hi: []int{1, 1, 1}} // every packOnceSpecs region is rank 3
	pull, data := encodeSubReq(subReq{Region: reg3}), encodeSubDataHeader(subData{Region: reg3}, 0)
	frames := int64(len(pull) + len(data))
	bufpool.Put(pull)
	bufpool.Put(data)

	saved := packOnceTraffic["msgs_sent"] - reg.Counter("msgs_sent").Value()
	pieces := saved / 2
	if saved < 0 || saved%2 != 0 || pieces > packOnceBorrowable {
		t.Errorf("msgs_sent = %d for one write + read, want %d less two per borrowed piece (at most %d)",
			reg.Counter("msgs_sent").Value(), packOnceTraffic["msgs_sent"], packOnceBorrowable)
	}
	if got := packOnceTraffic["bytes_sent"] - reg.Counter("bytes_sent").Value(); got != borrowed+pieces*frames {
		t.Errorf("bytes_sent fell by %d, want the %d pieces' pull and data frames: %d borrowed bytes + %d of headers",
			got, pieces, borrowed, pieces*frames)
	}
	if got, want := reg.Counter("reorg_bytes").Value(), packOnceTraffic["reorg_bytes"]; got != want {
		t.Errorf("reorg_bytes = %d for one write + read, want %d", got, want)
	}
	return pieces
}

// TestStridedPiecesPackedOnce drives both strided arms over every kind
// of transport: the data is bit-exact, the traffic is message for message
// and byte for byte what the two-copy path sent — in process, less
// exactly the pulls and replies the servers borrowed, however many the
// schedule let them, and all sixteen client-contiguous pieces when every
// other client's write is posted before the master's request — every
// packed frame counts as coalesced, and where frames are delivered in
// process they all come back to bufpool (a deployment of twelve rounds
// leaves no more buffers checked out than one of two). A frame written
// to a socket is the exception: SendOwned over TCP leaves its buffer to
// the garbage collector, so a packed frame sent to or from a dialed rank
// is not recycled (the scratch buffer it replaces was) and the hub row
// skips that check — ROADMAP item 5a has the follow-up.
func TestStridedPiecesPackedOnce(t *testing.T) {
	inproc := func(cfg Config, app App) error { return RunReal(cfg, memDisks(cfg.NumServers), app) }
	// Servers attached to the hub in process, clients dialed: a packed
	// frame crosses local → socket on reads and socket → local on writes.
	hub := func(cfg Config, app App) error { return runHubLocal(cfg, memDisks(cfg.NumServers), nil, app) }
	simnet := func(cfg Config, app App) error {
		_, err := RunSim(cfg, mpi.SP2Link(), func(int, clock.Clock) storage.Disk { return storage.NewMemDisk() }, app)
		return err
	}

	for _, tr := range []struct {
		name    string
		run     func(Config, App) error
		sockets bool // borrowed payloads leave by writev and count as coalesced too
		borrows bool // an in-process world: servers may copy pieces out of posted writes
	}{
		{"inproc", inproc, false, true},
		{"simnet", simnet, false, false},
		{"hub", hub, true, false},
	} {
		t.Run(tr.name, func(t *testing.T) {
			reg, borrowed, _ := packOnceRounds(t, 1, false, tr.run)
			if tr.borrows {
				borrowedPieces(t, reg, borrowed)
				reg, borrowed, _ := packOnceRounds(t, 1, true, tr.run)
				if n := borrowedPieces(t, reg, borrowed); n != packOnceBorrowable {
					t.Errorf("%d pieces borrowed with every write posted first, want all %d contiguous in their client's chunk", n, packOnceBorrowable)
				}
			} else {
				for name, want := range packOnceTraffic {
					if got := reg.Counter(name).Value(); got != want {
						t.Errorf("%s = %d for one write + read, want %d", name, got, want)
					}
				}
				if borrowed != 0 {
					t.Errorf("%d write bytes borrowed off the in-process world, want 0", borrowed)
				}
			}
			coalesced := reg.Counter("frames_coalesced").Value()
			if coalesced < packOnceFrames || (coalesced > packOnceFrames) != tr.sockets {
				t.Errorf("frames_coalesced = %d, want the %d packed frames (more only over writev: %v)",
					coalesced, packOnceFrames, tr.sockets)
			}
			if tr.sockets {
				return
			}

			// Puts may outnumber gets — the pool adopts the request frames
			// append happened to grow to a class size — so the check is
			// one-sided: rounds must not add checked-out buffers.
			_, _, few := packOnceRounds(t, 2, false, tr.run)
			_, _, many := packOnceRounds(t, 12, false, tr.run)
			if many > few {
				t.Errorf("buffers never returned: %d after 2 rounds, %d after 12 (%+.1f per round): packed frames leak",
					few, many, float64(many-few)/10)
			}
		})
	}
}
