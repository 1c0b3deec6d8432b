package core

import (
	"fmt"
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
// whole deployment, on every transport — the values PR 19 (Extract into
// a scratch buffer, then sendVec) measured for the same operations: a
// piece packed straight into its frame is the same message of the same
// bytes.
var packOnceTraffic = map[string]int64{
	"msgs_sent":   84,
	"bytes_sent":  134056,
	"reorg_bytes": 131072,
}

// packOnceFrames is how many strided pieces that write + read sends,
// each packed into its frame.
const packOnceFrames = 24

// packOnceRounds runs a deployment that writes and reads back
// packOnceSpecs rounds times, verifying every read bit for bit, and
// returns how many pool buffers it left checked out.
func packOnceRounds(t *testing.T, rounds int, run func(cfg Config, app App) error) (reg *obs.Registry, live int64) {
	t.Helper()
	specs := packOnceSpecs()
	reg = obs.NewRegistry()
	cfg := Config{NumClients: 2, NumServers: 2, SubchunkBytes: 4 << 10, Metrics: reg}
	got0, put0, _ := bufpool.Stats()
	err := run(cfg, func(cl *Client) error {
		for k := 0; k < rounds; k++ {
			if err := cl.WriteArrays("", specs, makeBufs(cl, specs, true)); err != nil {
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, put, _ := bufpool.Stats()
	return reg, (got - got0) - (put - put0)
}

// TestStridedPiecesPackedOnce drives both strided arms over every kind
// of transport: the data is bit-exact, the traffic is message for message
// and byte for byte what the two-copy path sent, every packed frame counts
// as coalesced, and where frames are delivered in process they all come
// back to bufpool (a deployment of twelve rounds leaves no more buffers
// checked out than one of two). A frame written to a socket is the
// exception: SendOwned over TCP leaves its buffer to the garbage
// collector, so a packed frame sent to or from a dialed rank is not
// recycled (the scratch buffer it replaces was) and the hub row skips
// that check — ROADMAP item 5a has the follow-up.
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
	}{
		{"inproc", inproc, false},
		{"simnet", simnet, false},
		{"hub", hub, true},
	} {
		t.Run(tr.name, func(t *testing.T) {
			reg, _ := packOnceRounds(t, 1, tr.run)
			for name, want := range packOnceTraffic {
				if got := reg.Counter(name).Value(); got != want {
					t.Errorf("%s = %d for one write + read, want %d", name, got, want)
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
			_, few := packOnceRounds(t, 2, tr.run)
			_, many := packOnceRounds(t, 12, tr.run)
			if many > few {
				t.Errorf("buffers never returned: %d after 2 rounds, %d after 12 (%+.1f per round): packed frames leak",
					few, many, float64(many-few)/10)
			}
		})
	}
}
