package baseline

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"panda/internal/array"
	"panda/internal/clock"
	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// fillPattern mirrors the core test pattern: uint32 keyed by global
// linear index.
func fillPattern(buf []byte, r array.Region, shape []int) {
	global := array.Box(shape)
	if r.IsEmpty() {
		return
	}
	pt := append([]int(nil), r.Lo...)
	for {
		gi := global.LinearIndex(pt)
		li := r.LinearIndex(pt)
		binary.LittleEndian.PutUint32(buf[li*4:], uint32(gi*2654435761+97))
		d := r.Rank() - 1
		for d >= 0 {
			pt[d]++
			if pt[d] < r.Hi[d] {
				break
			}
			pt[d] = r.Lo[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

func makeBufs(rank int, specs []core.ArraySpec, fill bool) [][]byte {
	bufs := make([][]byte, len(specs))
	for i, spec := range specs {
		bufs[i] = make([]byte, spec.MemChunkBytes(rank))
		if fill {
			fillPattern(bufs[i], spec.MemChunk(rank), spec.Mem.Shape)
		}
	}
	return bufs
}

func memDisks(n int) []storage.Disk {
	disks := make([]storage.Disk, n)
	for i := range disks {
		disks[i] = storage.NewMemDisk()
	}
	return disks
}

// filesOf snapshots every file of a disk set.
func filesOf(t *testing.T, disks []storage.Disk, specs []core.ArraySpec, cfg core.Config) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for s := 0; s < cfg.NumServers; s++ {
		for _, spec := range specs {
			name := spec.FileName("", s)
			f, err := disks[s].Open(name)
			if err != nil {
				continue
			}
			sz, _ := f.Size()
			b := make([]byte, sz)
			if sz > 0 {
				f.ReadAt(b, 0)
			}
			f.Close()
			out[fmt.Sprintf("%d/%s", s, name)] = b
		}
	}
	return out
}

func testSpecs() (core.Config, []core.ArraySpec) {
	cfg := core.Config{NumClients: 8, NumServers: 3, SubchunkBytes: 1 << 10}
	shape := []int{16, 12, 8}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block, array.Block}, []int{2, 2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{3})
	return cfg, []core.ArraySpec{{Name: "cmp", ElemSize: 4, Mem: mem, Disk: disk}}
}

func TestBaselinesProducePandaIdenticalFiles(t *testing.T) {
	cfg, specs := testSpecs()

	pandaDisks := memDisks(cfg.NumServers)
	if err := core.RunReal(cfg, pandaDisks, func(cl *core.Client) error {
		return cl.WriteArrays("", specs, makeBufs(cl.Rank(), specs, true))
	}); err != nil {
		t.Fatal(err)
	}
	want := filesOf(t, pandaDisks, specs, cfg)
	if len(want) == 0 {
		t.Fatal("panda wrote no files")
	}

	for _, strat := range []Strategy{ClientDirected, TwoPhase} {
		disks := memDisks(cfg.NumServers)
		if err := runReal(strat, cfg, disks, func(cl *Client) error {
			return cl.WriteArrays("", specs, makeBufs(cl.Rank(), specs, true))
		}); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		got := filesOf(t, disks, specs, cfg)
		if len(got) != len(want) {
			t.Fatalf("%v: wrote %d files, panda wrote %d", strat, len(got), len(want))
		}
		for name, data := range want {
			if !bytes.Equal(got[name], data) {
				t.Fatalf("%v: file %s differs from panda's", strat, name)
			}
		}
	}
}

func TestBaselineRoundTrips(t *testing.T) {
	cfg, specs := testSpecs()
	for _, strat := range []Strategy{ClientDirected, TwoPhase} {
		disks := memDisks(cfg.NumServers)
		if err := runReal(strat, cfg, disks, func(cl *Client) error {
			return cl.WriteArrays("", specs, makeBufs(cl.Rank(), specs, true))
		}); err != nil {
			t.Fatalf("%v write: %v", strat, err)
		}
		if err := runReal(strat, cfg, disks, func(cl *Client) error {
			bufs := makeBufs(cl.Rank(), specs, false)
			if err := cl.ReadArrays("", specs, bufs); err != nil {
				return err
			}
			for i, spec := range specs {
				want := make([]byte, len(bufs[i]))
				fillPattern(want, spec.MemChunk(cl.Rank()), spec.Mem.Shape)
				if !bytes.Equal(bufs[i], want) {
					return fmt.Errorf("client %d: read-back mismatch", cl.Rank())
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("%v read: %v", strat, err)
		}
	}
}

func TestCrossReadPandaReadsBaselineFiles(t *testing.T) {
	// Interchangeability both ways: Panda reads what a baseline wrote.
	cfg, specs := testSpecs()
	disks := memDisks(cfg.NumServers)
	if err := runReal(TwoPhase, cfg, disks, func(cl *Client) error {
		return cl.WriteArrays("", specs, makeBufs(cl.Rank(), specs, true))
	}); err != nil {
		t.Fatal(err)
	}
	if err := core.RunReal(cfg, disks, func(cl *core.Client) error {
		bufs := makeBufs(cl.Rank(), specs, false)
		if err := cl.ReadArrays("", specs, bufs); err != nil {
			return err
		}
		for i, spec := range specs {
			want := make([]byte, len(bufs[i]))
			fillPattern(want, spec.MemChunk(cl.Rank()), spec.Mem.Shape)
			if !bytes.Equal(bufs[i], want) {
				return fmt.Errorf("client %d: mismatch", cl.Rank())
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func simFactory() core.DiskFactory {
	return func(i int, clk clock.Clock) storage.Disk {
		return storage.NewSimDisk(storage.NewNullDisk(), storage.SP2AIX(), clk)
	}
}

// timedWrite runs one simulated collective write and returns the metric.
func timedWrite(t *testing.T, strat Strategy, cfg core.Config, specs []core.ArraySpec) SimResult {
	t.Helper()
	res, err := RunSim(strat, cfg, mpi.SP2Link(), simFactory(), func(cl *Client) error {
		return cl.WriteArrays("", specs, makeBufs(cl.Rank(), specs, false))
	})
	if err != nil {
		t.Fatalf("%v: %v", strat, err)
	}
	return res
}

func TestServerDirectedBeatsClientDirected(t *testing.T) {
	// The paper's core argument: with a reorganizing schema the
	// client-directed request pattern seeks constantly while
	// server-directed I/O stays sequential.
	cfg := core.Config{NumClients: 8, NumServers: 2, CopyRate: 100e6}
	shape := []int{32, 32, 32} // 128 KB at 4 B
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block, array.Block}, []int{2, 2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{2})
	specs := []core.ArraySpec{{Name: "a", ElemSize: 4, Mem: mem, Disk: disk}}

	pres, err := core.RunSim(cfg, mpi.SP2Link(), simFactory(), func(cl *core.Client) error {
		return cl.WriteArrays("", specs, makeBufs(cl.Rank(), specs, false))
	})
	if err != nil {
		t.Fatal(err)
	}
	cres := timedWrite(t, ClientDirected, cfg, specs)
	tres := timedWrite(t, TwoPhase, cfg, specs)

	panda := pres.MaxClientElapsed()
	naive := cres.MaxClientElapsed()
	two := tres.MaxClientElapsed()
	if panda >= naive {
		t.Fatalf("server-directed (%v) not faster than client-directed (%v)", panda, naive)
	}
	if two >= naive {
		t.Fatalf("two-phase (%v) not faster than client-directed (%v)", two, naive)
	}

	var pandaSeeks, naiveSeeks int64
	for _, st := range pres.DiskStats {
		pandaSeeks += st.Seeks
	}
	for _, st := range cres.DiskStats {
		naiveSeeks += st.Seeks
	}
	if pandaSeeks >= naiveSeeks {
		t.Fatalf("server-directed seeks (%d) not fewer than client-directed (%d)", pandaSeeks, naiveSeeks)
	}
}

func TestTwoPhaseNoOpRedistributionOnConformingLayout(t *testing.T) {
	// When the memory layout already conforms (BLOCK,*,* both), phase
	// one moves nothing between clients.
	cfg := core.Config{NumClients: 4, NumServers: 2}
	shape := []int{16, 8}
	sch := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{4})
	specs := []core.ArraySpec{{Name: "c", ElemSize: 4, Mem: sch, Disk: sch}}
	res, err := RunSim(TwoPhase, cfg, mpi.SP2Link(), simFactory(), func(cl *Client) error {
		return cl.WriteArrays("", specs, makeBufs(cl.Rank(), specs, false))
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReorgBytes != 0 {
		t.Fatalf("reorg bytes = %d on conforming layout", res.ReorgBytes)
	}
}

func TestFileTargetsCoverEveryByteOnce(t *testing.T) {
	cfg, specs := testSpecs()
	spec := specs[0]
	covered := map[string]map[int64]bool{}
	var total int64
	for c := 0; c < cfg.NumClients; c++ {
		chunk := spec.MemChunk(c)
		if chunk.IsEmpty() {
			continue
		}
		for _, tgt := range fileTargets(spec, "", cfg.NumServers, chunk) {
			key := fmt.Sprintf("%d/%s", tgt.Server, tgt.Name)
			if covered[key] == nil {
				covered[key] = map[int64]bool{}
			}
			for b := tgt.Offset; b < tgt.Offset+tgt.Bytes; b++ {
				if covered[key][b] {
					t.Fatalf("byte %d of %s written twice", b, key)
				}
				covered[key][b] = true
			}
			total += tgt.Bytes
		}
	}
	if total != spec.TotalBytes() {
		t.Fatalf("targets cover %d bytes, array has %d", total, spec.TotalBytes())
	}
}

func TestBaselineRequestsExceedPandaMessages(t *testing.T) {
	// Client-directed strided I/O needs far more file requests than
	// Panda needs sub-chunks.
	cfg := core.Config{NumClients: 8, NumServers: 2}
	shape := []int{16, 16, 16}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block, array.Block}, []int{2, 2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Star, array.Block}, []int{2})
	specs := []core.ArraySpec{{Name: "m", ElemSize: 4, Mem: mem, Disk: disk}}
	res := timedWrite(t, ClientDirected, cfg, specs)
	// dim-2 split: every row of every client chunk is a separate run.
	if res.Requests < 64 {
		t.Fatalf("expected heavy request traffic, got %d requests", res.Requests)
	}
}

func FuzzDecodeFileReq(f *testing.F) {
	f.Add(encodeFileReq(bReqWrite, "file.0", 128, 0, []byte{1, 2, 3}))
	f.Add(encodeFileReq(bReqRead, "x", 0, 64, nil))
	f.Add([]byte{})
	f.Add([]byte{bReqWrite, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _, _, _, _ = decodeFileReq(data)
	})
}

func FuzzDecodePiece(f *testing.F) {
	f.Add(encodePiece(array.NewRegion([]int{0, 1}, []int{2, 3}), []byte{9}))
	f.Add([]byte{bPeerPiece})
	f.Add([]byte{bPeerPiece, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = decodePiece(data)
	})
}

// runReal executes a baseline deployment in real time, for the
// functional tests and the cross-checks against Panda's files.
func runReal(strategy Strategy, cfg core.Config, disks []storage.Disk, app App) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	world := mpi.NewWorld(cfg.WorldSize())
	clk := clock.NewReal()
	errs := make([]error, cfg.WorldSize())
	var wg sync.WaitGroup
	for r := 0; r < cfg.NumClients; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, errs[r] = clientMain(strategy, cfg, world.Comm(r), clk, app)
		}(r)
	}
	for i := 0; i < cfg.NumServers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rank := cfg.ServerRank(i)
			errs[rank] = ServeFiles(cfg, world.Comm(rank), disks[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
