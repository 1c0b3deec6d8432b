package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"panda/internal/array"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// fillPattern writes a uint32 pattern keyed by global linear index into
// a buffer holding region r of an array shaped shape (elem size 4).
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

// refArray builds the full row-major reference contents.
func refArray(shape []int) []byte {
	whole := array.Box(shape)
	buf := make([]byte, whole.NumElems()*4)
	fillPattern(buf, whole, shape)
	return buf
}

// makeBufs allocates and fills each client's chunk buffers for specs.
func makeBufs(cl *Client, specs []ArraySpec, fill bool) [][]byte {
	bufs := make([][]byte, len(specs))
	for i, spec := range specs {
		bufs[i] = make([]byte, spec.MemChunkBytes(cl.Rank()))
		if fill {
			fillPattern(bufs[i], spec.MemChunk(cl.Rank()), spec.Mem.Shape)
		}
	}
	return bufs
}

// checkBufs verifies each buffer holds the reference pattern.
func checkBufs(cl *Client, specs []ArraySpec, bufs [][]byte) error {
	for i, spec := range specs {
		want := make([]byte, len(bufs[i]))
		fillPattern(want, spec.MemChunk(cl.Rank()), spec.Mem.Shape)
		if !bytes.Equal(bufs[i], want) {
			return fmt.Errorf("client %d array %s: read data differs from written data", cl.Rank(), spec.Name)
		}
	}
	return nil
}

func memDisks(n int) []storage.Disk {
	disks := make([]storage.Disk, n)
	for i := range disks {
		disks[i] = storage.NewMemDisk()
	}
	return disks
}

// roundTrip writes specs through one deployment, verifies the on-disk
// bytes chunk by chunk, then reads them back through a second
// deployment over the same disks.
func roundTrip(t *testing.T, cfg Config, specs []ArraySpec) {
	t.Helper()
	disks := memDisks(cfg.NumServers)

	if err := RunReal(cfg, disks, func(cl *Client) error {
		bufs := makeBufs(cl, specs, true)
		return cl.WriteArrays("", specs, bufs)
	}); err != nil {
		t.Fatalf("write: %v", err)
	}

	// Verify every server file: assigned chunks, row-major each, in
	// assignment order.
	for _, spec := range specs {
		ref := refArray(spec.Mem.Shape)
		whole := array.Box(spec.Mem.Shape)
		for s := 0; s < cfg.NumServers; s++ {
			jobs := assignChunks(spec.Disk, spec.ElemSize, cfg.NumServers, s)
			if len(jobs) == 0 {
				continue
			}
			f, err := disks[s].Open(spec.FileName("", s))
			if err != nil {
				t.Fatalf("server %d file missing: %v", s, err)
			}
			for _, job := range jobs {
				want := array.Extract(ref, whole, job.Region, spec.ElemSize)
				got := make([]byte, len(want))
				if _, err := f.ReadAt(got, job.FileOffset); err != nil {
					t.Fatalf("read back chunk %d: %v", job.ChunkIdx, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("array %s server %d chunk %d: file bytes differ", spec.Name, s, job.ChunkIdx)
				}
			}
			f.Close()
		}
	}

	// Read back through Panda into zeroed buffers.
	if err := RunReal(cfg, disks, func(cl *Client) error {
		bufs := makeBufs(cl, specs, false)
		if err := cl.ReadArrays("", specs, bufs); err != nil {
			return err
		}
		return checkBufs(cl, specs, bufs)
	}); err != nil {
		t.Fatalf("read: %v", err)
	}
}

func block3(shape []int, mesh []int) array.Schema {
	return array.MustSchema(shape, []array.Dist{array.Block, array.Block, array.Block}, mesh)
}

func TestRoundTripNaturalChunking3D(t *testing.T) {
	cfg := Config{NumClients: 8, NumServers: 4, SubchunkBytes: 8 << 10}
	sch := block3([]int{16, 16, 16}, []int{2, 2, 2})
	roundTrip(t, cfg, []ArraySpec{{Name: "nat", ElemSize: 4, Mem: sch, Disk: sch}})
}

func TestRoundTripTraditionalOrder(t *testing.T) {
	// Memory BLOCK,BLOCK,BLOCK on 4x2x2; disk BLOCK,*,* — the paper's
	// reorganization experiment (Figures 7, 8).
	cfg := Config{NumClients: 16, NumServers: 4, SubchunkBytes: 4 << 10}
	shape := []int{16, 24, 8}
	mem := block3(shape, []int{4, 2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{4})
	roundTrip(t, cfg, []ArraySpec{{Name: "trad", ElemSize: 4, Mem: mem, Disk: disk}})
}

func TestRoundTripRadicallyDifferentSchemas(t *testing.T) {
	// Memory split along dim 0, disk split along dim 2: every
	// sub-chunk needs pieces from several clients, all strided.
	cfg := Config{NumClients: 4, NumServers: 3, SubchunkBytes: 2 << 10}
	shape := []int{8, 12, 20}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{4})
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Star, array.Block}, []int{5})
	roundTrip(t, cfg, []ArraySpec{{Name: "reorg", ElemSize: 4, Mem: mem, Disk: disk}})
}

func TestRoundTripSingleServerSingleClient(t *testing.T) {
	cfg := Config{NumClients: 1, NumServers: 1}
	shape := []int{10, 10}
	sch := array.MustSchema(shape, []array.Dist{array.Star, array.Star}, nil)
	roundTrip(t, cfg, []ArraySpec{{Name: "tiny", ElemSize: 4, Mem: sch, Disk: sch}})
}

func TestRoundTripUnevenBlocks(t *testing.T) {
	// 10 over 4 mesh slots: uneven chunks; 7 over 3 servers on disk.
	cfg := Config{NumClients: 4, NumServers: 3, SubchunkBytes: 64}
	shape := []int{10, 7}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{4})
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{3})
	roundTrip(t, cfg, []ArraySpec{{Name: "uneven", ElemSize: 4, Mem: mem, Disk: disk}})
}

func TestRoundTripEmptyChunks(t *testing.T) {
	// Mesh larger than the dimension: clients 3.. hold empty chunks.
	cfg := Config{NumClients: 6, NumServers: 2}
	shape := []int{3, 4}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{6})
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{2})
	roundTrip(t, cfg, []ArraySpec{{Name: "empty", ElemSize: 4, Mem: mem, Disk: disk}})
}

func TestRoundTripMoreChunksThanServers(t *testing.T) {
	// 8 disk chunks round-robin over 3 servers.
	cfg := Config{NumClients: 4, NumServers: 3, SubchunkBytes: 512}
	shape := []int{16, 16}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{4, 2})
	roundTrip(t, cfg, []ArraySpec{{Name: "rr", ElemSize: 4, Mem: mem, Disk: disk}})
}

func TestRoundTripMultipleArrays(t *testing.T) {
	// The paper's timestep workload: several arrays, one collective
	// call, different shapes and schemas.
	cfg := Config{NumClients: 8, NumServers: 2, SubchunkBytes: 4 << 10}
	s1 := block3([]int{8, 8, 8}, []int{2, 2, 2})
	s2 := array.MustSchema([]int{32, 16}, []array.Dist{array.Block, array.Block}, []int{4, 2})
	d2 := array.MustSchema([]int{32, 16}, []array.Dist{array.Block, array.Star}, []int{2})
	s3 := array.MustSchema([]int{64}, []array.Dist{array.Block}, []int{8})
	d3 := array.MustSchema([]int{64}, []array.Dist{array.Star}, nil)
	roundTrip(t, cfg, []ArraySpec{
		{Name: "temperature", ElemSize: 4, Mem: s1, Disk: s1},
		{Name: "pressure", ElemSize: 4, Mem: s2, Disk: d2},
		{Name: "density", ElemSize: 4, Mem: s3, Disk: d3},
	})
}

func TestRoundTrip4D(t *testing.T) {
	cfg := Config{NumClients: 8, NumServers: 2, SubchunkBytes: 1 << 10}
	shape := []int{6, 5, 4, 7}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block, array.Star, array.Block}, []int{2, 2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Block, array.Block, array.Star}, []int{3, 2})
	roundTrip(t, cfg, []ArraySpec{{Name: "four", ElemSize: 4, Mem: mem, Disk: disk}})
}

func TestPipelinedWritesProduceIdenticalFiles(t *testing.T) {
	shape := []int{24, 24}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{2})
	specs := []ArraySpec{{Name: "pipe", ElemSize: 4, Mem: mem, Disk: disk}}

	run := func(pipeline int) []storage.Disk {
		cfg := Config{NumClients: 4, NumServers: 2, SubchunkBytes: 256, Pipeline: pipeline}
		disks := memDisks(2)
		if err := RunReal(cfg, disks, func(cl *Client) error {
			return cl.WriteArrays("", specs, makeBufs(cl, specs, true))
		}); err != nil {
			t.Fatalf("pipeline %d: %v", pipeline, err)
		}
		return disks
	}
	a, b := run(1), run(8)
	for s := 0; s < 2; s++ {
		fa, err := a[s].Open("pipe.0")
		if s == 1 {
			fa, err = a[s].Open("pipe.1")
		}
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("pipe.%d", s)
		fb, err := b[s].Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sa, _ := fa.Size()
		sb, _ := fb.Size()
		if sa != sb {
			t.Fatalf("server %d: sizes differ %d vs %d", s, sa, sb)
		}
		ba := make([]byte, sa)
		bb := make([]byte, sb)
		fa.ReadAt(ba, 0)
		fb.ReadAt(bb, 0)
		if !bytes.Equal(ba, bb) {
			t.Fatalf("server %d: pipelined write produced different file", s)
		}
	}
}

func TestConcatenationGivesTraditionalOrder(t *testing.T) {
	// The paper's migration story: BLOCK,*,* on disk means cat of the
	// per-server files is the row-major array.
	cfg := Config{NumClients: 8, NumServers: 4, SubchunkBytes: 2 << 10}
	shape := []int{16, 8, 8}
	mem := block3(shape, []int{2, 2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{4})
	specs := []ArraySpec{{Name: "cat", ElemSize: 4, Mem: mem, Disk: disk}}
	disks := memDisks(4)
	if err := RunReal(cfg, disks, func(cl *Client) error {
		return cl.WriteArrays("", specs, makeBufs(cl, specs, true))
	}); err != nil {
		t.Fatal(err)
	}
	var concat []byte
	for s := 0; s < 4; s++ {
		f, err := disks[s].Open(fmt.Sprintf("cat.%d", s))
		if err != nil {
			t.Fatal(err)
		}
		sz, _ := f.Size()
		b := make([]byte, sz)
		f.ReadAt(b, 0)
		concat = append(concat, b...)
	}
	if !bytes.Equal(concat, refArray(shape)) {
		t.Fatal("concatenated files are not the row-major array")
	}
}

func TestSuffixesKeepFilesApart(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 1}
	sch := array.MustSchema([]int{8}, []array.Dist{array.Block}, []int{2})
	specs := []ArraySpec{{Name: "ts", ElemSize: 4, Mem: sch, Disk: sch}}
	disks := memDisks(1)
	if err := RunReal(cfg, disks, func(cl *Client) error {
		bufs := makeBufs(cl, specs, true)
		for step := 0; step < 3; step++ {
			if err := cl.WriteArrays(fmt.Sprintf(".t%d", step), specs, bufs); err != nil {
				return err
			}
		}
		return cl.WriteArrays(".ckpt", specs, bufs)
	}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ts.t0.0", "ts.t1.0", "ts.t2.0", "ts.ckpt.0"} {
		if !storage.Exists(disks[0], name) {
			t.Fatalf("file %s missing", name)
		}
	}
}

func TestCheckpointRestartRestoresData(t *testing.T) {
	cfg := Config{NumClients: 4, NumServers: 2}
	sch := array.MustSchema([]int{12, 12}, []array.Dist{array.Block, array.Block}, []int{2, 2})
	specs := []ArraySpec{{Name: "state", ElemSize: 4, Mem: sch, Disk: sch}}
	disks := memDisks(2)
	if err := RunReal(cfg, disks, func(cl *Client) error {
		bufs := makeBufs(cl, specs, true)
		return cl.WriteArrays(".ckpt", specs, bufs)
	}); err != nil {
		t.Fatal(err)
	}
	// "Crash": a fresh deployment restarts from the checkpoint.
	if err := RunReal(cfg, disks, func(cl *Client) error {
		bufs := makeBufs(cl, specs, false)
		if err := cl.ReadArrays(".ckpt", specs, bufs); err != nil {
			return err
		}
		return checkBufs(cl, specs, bufs)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReadMissingFileReportsErrorEverywhere(t *testing.T) {
	cfg := Config{NumClients: 4, NumServers: 2}
	sch := array.MustSchema([]int{8, 8}, []array.Dist{array.Block, array.Block}, []int{2, 2})
	specs := []ArraySpec{{Name: "ghost", ElemSize: 4, Mem: sch, Disk: sch}}
	var failures int
	var mu sync.Mutex
	err := RunReal(cfg, memDisks(2), func(cl *Client) error {
		bufs := makeBufs(cl, specs, false)
		rerr := cl.ReadArrays("", specs, bufs)
		if rerr != nil {
			mu.Lock()
			failures++
			mu.Unlock()
		}
		return rerr
	})
	if err == nil {
		t.Fatal("read of missing files succeeded")
	}
	if failures != cfg.NumClients {
		t.Fatalf("%d clients saw the failure, want %d", failures, cfg.NumClients)
	}
}

func TestReadTruncatedFileFails(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 1}
	sch := array.MustSchema([]int{8}, []array.Dist{array.Block}, []int{2})
	specs := []ArraySpec{{Name: "trunc", ElemSize: 4, Mem: sch, Disk: sch}}
	disks := memDisks(1)
	// Write a too-short file by hand.
	f, _ := disks[0].(*storage.MemDisk).Create("trunc.0")
	f.WriteAt([]byte{1, 2, 3}, 0)
	f.Close()
	err := RunReal(cfg, disks, func(cl *Client) error {
		return cl.ReadArrays("", specs, makeBufs(cl, specs, false))
	})
	if err == nil || !strings.Contains(err.Error(), "holds") {
		t.Fatalf("err = %v, want size mismatch", err)
	}
}

func TestValidationErrors(t *testing.T) {
	cfg := Config{NumClients: 4, NumServers: 2}
	good := array.MustSchema([]int{8, 8}, []array.Dist{array.Block, array.Block}, []int{2, 2})
	cases := []struct {
		name  string
		specs []ArraySpec
	}{
		{"no arrays", nil},
		{"empty name", []ArraySpec{{Name: "", ElemSize: 4, Mem: good, Disk: good}}},
		{"bad elem", []ArraySpec{{Name: "a", ElemSize: 0, Mem: good, Disk: good}}},
		{"shape mismatch", []ArraySpec{{Name: "a", ElemSize: 4, Mem: good,
			Disk: array.MustSchema([]int{8, 9}, []array.Dist{array.Block, array.Block}, []int{2, 2})}}},
		{"wrong client count", []ArraySpec{{Name: "a", ElemSize: 4,
			Mem:  array.MustSchema([]int{8, 8}, []array.Dist{array.Block, array.Star}, []int{8}),
			Disk: good}}},
		{"duplicate names", []ArraySpec{
			{Name: "a", ElemSize: 4, Mem: good, Disk: good},
			{Name: "a", ElemSize: 4, Mem: good, Disk: good},
		}},
	}
	for _, c := range cases {
		err := RunReal(cfg, memDisks(2), func(cl *Client) error {
			bufs := make([][]byte, len(c.specs))
			for i, s := range c.specs {
				bufs[i] = make([]byte, s.MemChunkBytes(cl.Rank()))
			}
			return cl.WriteArrays("", c.specs, bufs)
		})
		if err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestStatsNaturalChunkingHasNoReorg(t *testing.T) {
	cfg := Config{NumClients: 4, NumServers: 2, SubchunkBytes: 1 << 20}
	sch := array.MustSchema([]int{16, 16}, []array.Dist{array.Block, array.Block}, []int{2, 2})
	specs := []ArraySpec{{Name: "nr", ElemSize: 4, Mem: sch, Disk: sch}}
	res, err := RunSim(cfg, mpi.SP2Link(), func(i int, clk clock.Clock) storage.Disk {
		return storage.NewMemDisk()
	}, func(cl *Client) error {
		bufs := makeBufs(cl, specs, true)
		if err := cl.WriteArrays("", specs, bufs); err != nil {
			return err
		}
		return cl.ReadArrays("", specs, bufs)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, st := range res.ClientStats {
		if st.ReorgBytes != 0 {
			t.Errorf("client %d reorg bytes = %d under natural chunking", r, st.ReorgBytes)
		}
	}
	for i, st := range res.ServerStats {
		if st.ReorgBytes != 0 {
			t.Errorf("server %d reorg bytes = %d under natural chunking", i, st.ReorgBytes)
		}
	}
}

func TestStatsReorgCountedForDifferentSchemas(t *testing.T) {
	cfg := Config{NumClients: 4, NumServers: 2, SubchunkBytes: 128}
	shape := []int{8, 16}
	mem := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{4})
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{2})
	specs := []ArraySpec{{Name: "rg", ElemSize: 4, Mem: mem, Disk: disk}}
	res, err := RunSim(cfg, mpi.SP2Link(), func(i int, clk clock.Clock) storage.Disk {
		return storage.NewMemDisk()
	}, func(cl *Client) error {
		return cl.WriteArrays("", specs, makeBufs(cl, specs, true))
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, st := range res.ClientStats {
		total += st.ReorgBytes
	}
	for _, st := range res.ServerStats {
		total += st.ReorgBytes
	}
	if total == 0 {
		t.Fatal("no reorganization recorded for radically different schemas")
	}
}

func TestSimRoundTripAndDeterminism(t *testing.T) {
	// PlainWrites keeps the absorbed-byte accounting exact: commit mode
	// also writes manifest and decision records to the disks.
	cfg := Config{NumClients: 8, NumServers: 2, SubchunkBytes: 4 << 10, StartupOverhead: 13 * time.Millisecond, PlainWrites: true}
	shape := []int{16, 16, 16}
	mem := block3(shape, []int{2, 2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{2})
	specs := []ArraySpec{{Name: "sim", ElemSize: 4, Mem: mem, Disk: disk}}

	run := func() (SimResult, error) {
		return RunSim(cfg, mpi.SP2Link(), simDiskFactory(storage.SP2AIX()), func(cl *Client) error {
			bufs := makeBufs(cl, specs, true)
			if err := cl.WriteArrays("", specs, bufs); err != nil {
				return err
			}
			zero := makeBufs(cl, specs, false)
			if err := cl.ReadArrays("", specs, zero); err != nil {
				return err
			}
			// NullDisk-backed SimDisk reads zeros; only shape of
			// traffic matters here, not contents.
			return nil
		})
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.MaxClientElapsed() != b.MaxClientElapsed() {
		t.Fatalf("non-deterministic simulation: %v/%v vs %v/%v",
			a.Elapsed, a.MaxClientElapsed(), b.Elapsed, b.MaxClientElapsed())
	}
	if a.MaxClientElapsed() <= cfg.StartupOverhead {
		t.Fatalf("elapsed %v suspiciously small", a.MaxClientElapsed())
	}
	// Disk stats must reflect the write and the read.
	var wrote int64
	for _, st := range a.DiskStats {
		wrote += st.BytesWritten
	}
	if wrote != specs[0].TotalBytes() {
		t.Fatalf("disks absorbed %d bytes, want %d", wrote, specs[0].TotalBytes())
	}
}

func TestSimDataIntegrity(t *testing.T) {
	// Full correctness under virtual time with retained data.
	cfg := Config{NumClients: 4, NumServers: 2, SubchunkBytes: 1 << 10}
	shape := []int{12, 10}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{4})
	specs := []ArraySpec{{Name: "integ", ElemSize: 4, Mem: mem, Disk: disk}}
	_, err := RunSim(cfg, mpi.SP2Link(), func(i int, clk clock.Clock) storage.Disk {
		return storage.NewSimDisk(storage.NewMemDisk(), storage.SP2AIX(), clk)
	}, func(cl *Client) error {
		bufs := makeBufs(cl, specs, true)
		if err := cl.WriteArrays("", specs, bufs); err != nil {
			return err
		}
		got := makeBufs(cl, specs, false)
		if err := cl.ReadArrays("", specs, got); err != nil {
			return err
		}
		return checkBufs(cl, specs, got)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestElapsedReportedPerClient(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 1}
	sch := array.MustSchema([]int{8}, []array.Dist{array.Block}, []int{2})
	specs := []ArraySpec{{Name: "e", ElemSize: 4, Mem: sch, Disk: sch}}
	res, err := RunSim(cfg, mpi.SP2Link(), simDiskFactory(storage.SP2AIX()), func(cl *Client) error {
		return cl.WriteArrays("", specs, makeBufs(cl, specs, true))
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range res.ClientElapsed {
		if e <= 0 {
			t.Errorf("client %d elapsed = %v", r, e)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{NumClients: 0, NumServers: 1},
		{NumClients: 1, NumServers: 0},
		{NumClients: 1, NumServers: 1, SubchunkBytes: -1},
		{NumClients: 1, NumServers: 1, Pipeline: -2},
		// a data frame of one such sub-chunk would exceed the transport's frame
		{NumClients: 1, NumServers: 1, SubchunkBytes: mpi.MaxFrameBytes},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
	good := Config{NumClients: 8, NumServers: 2}
	for i, c := range []Config{
		good,
		// Whole-op retries compose with any MaxInflight: every router holds
		// a retried Seq's higher attempt, or admits it anew once the old
		// one retired (TestWholeOpRetryThroughRouter).
		{NumClients: 1, NumServers: 1, OpTimeout: time.Second, Retry: RetryPolicy{Max: 1}, Sched: SchedConfig{MaxInflight: 1}},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	if good.MasterServer() != 8 || good.ServerRank(1) != 9 || good.ServerIndex(9) != 1 || !good.IsServer(8) || good.IsServer(7) {
		t.Error("rank helpers inconsistent")
	}
}

func TestPerArraySubchunkOverride(t *testing.T) {
	// Two arrays in one operation with different sub-chunk limits:
	// the plans must respect each array's own limit, and the data
	// must still round-trip.
	cfg := Config{NumClients: 4, NumServers: 2, SubchunkBytes: 1 << 20}
	shape := []int{16, 16}
	sch := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{2, 2})
	specs := []ArraySpec{
		{Name: "coarse", ElemSize: 4, Mem: sch, Disk: sch},                  // 1 MB default
		{Name: "fine", ElemSize: 4, Mem: sch, Disk: sch, SubchunkBytes: 64}, // 64 B override
	}
	// Plan check: the fine array splits into 64-byte jobs.
	for s := 0; s < 2; s++ {
		for _, sj := range planSubchunks(1, specs[1], share(specs[1], 2, s), specs[1].subchunkBytes(cfg)) {
			if sj.Bytes > 64 {
				t.Fatalf("fine sub-chunk has %d bytes", sj.Bytes)
			}
		}
		coarse := share(specs[0], 2, s)
		subs := planSubchunks(0, specs[0], coarse, specs[0].subchunkBytes(cfg))
		if len(subs) != len(coarse) {
			t.Fatalf("coarse array split unnecessarily: %d subs for %d chunks", len(subs), len(coarse))
		}
	}
	roundTrip(t, cfg, specs)
}

func TestSubchunkOverrideOnWire(t *testing.T) {
	sch := array.MustSchema([]int{8}, []array.Dist{array.Block}, []int{2})
	req := opRequest{Op: opWrite, Specs: []ArraySpec{
		{Name: "x", ElemSize: 4, Mem: sch, Disk: sch, SubchunkBytes: 12345},
	}}
	got, err := decodeOpRequest(encodeOpRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.Specs[0].SubchunkBytes != 12345 {
		t.Fatalf("SubchunkBytes = %d", got.Specs[0].SubchunkBytes)
	}
}

func TestRestartOnDifferentNodeCount(t *testing.T) {
	// A checkpoint written by 8 compute nodes restarts on 4 (and 2):
	// the disk schema pins the file layout, while the new memory
	// schema re-decomposes the data across however many nodes the new
	// run has. This falls out of schema-described I/O — the paper's
	// high-level-interface argument in action.
	shape := []int{16, 16}
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{2})
	write := ArraySpec{Name: "ck", ElemSize: 4,
		Mem:  array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{4, 2}),
		Disk: disk}
	disks := memDisks(2)
	if err := RunReal(Config{NumClients: 8, NumServers: 2}, disks, func(cl *Client) error {
		return cl.WriteArrays(".ckpt", []ArraySpec{write}, makeBufs(cl, []ArraySpec{write}, true))
	}); err != nil {
		t.Fatal(err)
	}
	for _, nc := range []int{4, 2} {
		var mem array.Schema
		if nc == 4 {
			mem = array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{2, 2})
		} else {
			mem = array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{2})
		}
		read := ArraySpec{Name: "ck", ElemSize: 4, Mem: mem, Disk: disk}
		if err := RunReal(Config{NumClients: nc, NumServers: 2}, disks, func(cl *Client) error {
			bufs := makeBufs(cl, []ArraySpec{read}, false)
			if err := cl.ReadArrays(".ckpt", []ArraySpec{read}, bufs); err != nil {
				return err
			}
			return checkBufs(cl, []ArraySpec{read}, bufs)
		}); err != nil {
			t.Fatalf("restart on %d nodes: %v", nc, err)
		}
	}
}

func TestStatsCountersPopulated(t *testing.T) {
	cfg := Config{NumClients: 4, NumServers: 2, SubchunkBytes: 1 << 10}
	sch := array.MustSchema([]int{16, 16}, []array.Dist{array.Block, array.Block}, []int{2, 2})
	specs := []ArraySpec{{Name: "st", ElemSize: 4, Mem: sch, Disk: sch}}
	res, err := RunSim(cfg, mpi.SP2Link(), simDiskFactory(storage.SP2AIX()), func(cl *Client) error {
		return cl.WriteArrays("", specs, makeBufs(cl, specs, true))
	})
	if err != nil {
		t.Fatal(err)
	}
	var clientSent, serverRecv int64
	for _, st := range res.ClientStats {
		clientSent += st.BytesSent
		if st.MsgsRecv == 0 {
			t.Error("client received no messages")
		}
	}
	for _, st := range res.ServerStats {
		serverRecv += st.BytesRecv
		if st.MsgsSent == 0 {
			t.Error("server sent no messages")
		}
	}
	if clientSent < specs[0].TotalBytes() {
		t.Errorf("clients sent %d bytes, array has %d", clientSent, specs[0].TotalBytes())
	}
	if serverRecv < specs[0].TotalBytes() {
		t.Errorf("servers received %d bytes, array has %d", serverRecv, specs[0].TotalBytes())
	}
}

func TestManySequentialOpsInSim(t *testing.T) {
	// Twenty timestep-style operations back to back under virtual
	// time: the operation sequence numbers must stay aligned across
	// every node and elapsed time must accumulate deterministically.
	cfg := Config{NumClients: 4, NumServers: 2, StartupOverhead: time.Millisecond}
	sch := array.MustSchema([]int{8, 8}, []array.Dist{array.Block, array.Block}, []int{2, 2})
	specs := []ArraySpec{{Name: "loop", ElemSize: 4, Mem: sch, Disk: sch}}
	run := func() time.Duration {
		res, err := RunSim(cfg, mpi.SP2Link(), simDiskFactory(storage.SP2AIX()), func(cl *Client) error {
			bufs := makeBufs(cl, specs, true)
			for step := 0; step < 20; step++ {
				if err := cl.WriteArrays(fmt.Sprintf(".t%d", step), specs, bufs); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
	if a < 20*time.Millisecond {
		t.Fatalf("20 ops with 1ms startup each took only %v", a)
	}
}

func TestElementSizesOneAndEight(t *testing.T) {
	cfg := Config{NumClients: 4, NumServers: 2, SubchunkBytes: 512}
	shape := []int{12, 12}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{2})
	for _, elem := range []int{1, 8} {
		specs := []ArraySpec{{Name: fmt.Sprintf("e%d", elem), ElemSize: elem, Mem: mem, Disk: disk}}
		disks := memDisks(2)
		if err := RunReal(cfg, disks, func(cl *Client) error {
			bufs := make([][]byte, 1)
			bufs[0] = make([]byte, specs[0].MemChunkBytes(cl.Rank()))
			for i := range bufs[0] {
				bufs[0][i] = byte(cl.Rank()*37 + i)
			}
			want := append([]byte(nil), bufs[0]...)
			if err := cl.WriteArrays("", specs, bufs); err != nil {
				return err
			}
			got := [][]byte{make([]byte, len(bufs[0]))}
			if err := cl.ReadArrays("", specs, got); err != nil {
				return err
			}
			if !bytes.Equal(got[0], want) {
				return fmt.Errorf("elem %d: mismatch on client %d", elem, cl.Rank())
			}
			return nil
		}); err != nil {
			t.Fatalf("elem %d: %v", elem, err)
		}
	}
}

// simDiskFactory is the disk of the paper's real-disk experiments: a
// discarding MemDisk behind the given AIX cost model.
func simDiskFactory(model storage.AIXModel) DiskFactory {
	return func(i int, clk clock.Clock) storage.Disk {
		return storage.NewSimDisk(storage.NewNullDisk(), model, clk)
	}
}
