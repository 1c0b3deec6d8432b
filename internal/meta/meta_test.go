package meta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"panda/internal/array"
	"panda/internal/clock"
	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/storage"
)

func sampleSpecs() []core.ArraySpec {
	shape := []int{16, 12, 8}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block, array.Block}, []int{2, 2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{3})
	disk2 := array.MustSchema([]int{24, 10}, []array.Dist{array.Star, array.Block}, []int{4})
	mem2 := array.MustSchema([]int{24, 10}, []array.Dist{array.Block, array.Star}, []int{8})
	return []core.ArraySpec{
		{Name: "temperature", ElemSize: 4, Mem: mem, Disk: disk},
		{Name: "density", ElemSize: 8, Mem: mem2, Disk: disk2},
	}
}

func TestSchemaSaveLoadRoundTrip(t *testing.T) {
	specs := sampleSpecs()
	g := FromSpecs("Sim2", 3, specs)
	path := filepath.Join(t.TempDir(), "sim.schema.json")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Group != "Sim2" || got.IONodes != 3 {
		t.Fatalf("header %+v", got)
	}
	back, err := got.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(specs) {
		t.Fatalf("%d specs", len(back))
	}
	for i := range specs {
		if back[i].Name != specs[i].Name || back[i].ElemSize != specs[i].ElemSize {
			t.Fatalf("spec %d: %+v", i, back[i])
		}
		if back[i].Mem.String() != specs[i].Mem.String() ||
			back[i].Disk.String() != specs[i].Disk.String() {
			t.Fatalf("spec %d schemas differ", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"format":"not-panda"}`), 0o644)
	if _, err := Load(bad); err == nil {
		t.Fatal("foreign json accepted")
	}
	os.WriteFile(bad, []byte(`{{{`), 0o644)
	if _, err := Load(bad); err == nil {
		t.Fatal("malformed json accepted")
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestFindUnknownArray(t *testing.T) {
	g := FromSpecs("g", 2, sampleSpecs())
	if _, err := g.Find("nope"); err == nil {
		t.Fatal("unknown array found")
	}
	if s, err := g.Find("density"); err != nil || s.Name != "density" {
		t.Fatalf("Find = %+v, %v", s, err)
	}
}

// memWriterAt collects WriteAt output in memory.
type memWriterAt struct{ b []byte }

func (m *memWriterAt) WriteAt(p []byte, off int64) (int, error) {
	end := off + int64(len(p))
	if end > int64(len(m.b)) {
		grown := make([]byte, end)
		copy(grown, m.b)
		m.b = grown
	}
	copy(m.b[off:end], p)
	return len(p), nil
}

// writeThroughPanda runs a real collective write and returns the disks.
func writeThroughPanda(t *testing.T, cfg core.Config, specs []core.ArraySpec, shape []int) []storage.Disk {
	t.Helper()
	disks := make([]storage.Disk, cfg.NumServers)
	for i := range disks {
		disks[i] = storage.NewMemDisk()
	}
	if err := core.RunReal(cfg, disks, func(cl *core.Client) error {
		bufs := make([][]byte, len(specs))
		for i, spec := range specs {
			bufs[i] = make([]byte, spec.MemChunkBytes(cl.Rank()))
			fillPattern(bufs[i], spec.MemChunk(cl.Rank()), spec.Mem.Shape)
		}
		return cl.WriteArrays("", specs, bufs)
	}); err != nil {
		t.Fatal(err)
	}
	return disks
}

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

func TestAssembleReproducesRowMajorOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	for iter := 0; iter < 25; iter++ {
		shape := []int{2 + rnd.Intn(12), 2 + rnd.Intn(12), 2 + rnd.Intn(8)}
		nc := 4
		ion := 1 + rnd.Intn(4)
		mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block, array.Star}, []int{2, 2})
		// Random disk schema.
		var disk array.Schema
		switch rnd.Intn(3) {
		case 0:
			disk = array.MustSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{1 + rnd.Intn(5)})
		case 1:
			disk = array.MustSchema(shape, []array.Dist{array.Block, array.Block, array.Star}, []int{2, 1 + rnd.Intn(3)})
		default:
			disk = array.MustSchema(shape, []array.Dist{array.Star, array.Star, array.Block}, []int{1 + rnd.Intn(4)})
		}
		specs := []core.ArraySpec{{Name: "vol", ElemSize: 4, Mem: mem, Disk: disk}}
		cfg := core.Config{NumClients: nc, NumServers: ion, SubchunkBytes: 512}
		disks := writeThroughPanda(t, cfg, specs, shape)

		g := FromSpecs("grp", ion, specs)
		var out memWriterAt
		if err := Assemble(&out, g, "vol", "", disks); err != nil {
			t.Fatalf("iter %d (%v / %v): %v", iter, mem, disk, err)
		}
		whole := array.Box(shape)
		want := make([]byte, whole.NumElems()*4)
		fillPattern(want, whole, shape)
		if !bytes.Equal(out.b, want) {
			t.Fatalf("iter %d: assembled stream is not the row-major array (mem %v disk %v)", iter, mem, disk)
		}
	}
}

func TestAssembleMissingFileFails(t *testing.T) {
	specs := sampleSpecs()[:1]
	g := FromSpecs("grp", 2, specs)
	var out memWriterAt
	err := Assemble(&out, g, "temperature", "", []storage.Disk{storage.NewMemDisk(), storage.NewMemDisk()})
	if !errors.Is(err, core.ErrNoCommittedEpoch) {
		t.Fatalf("missing files: %v, want ErrNoCommittedEpoch", err)
	}
}

func TestAssembleTruncatedFileFails(t *testing.T) {
	shape := []int{8, 8}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{4})
	specs := []core.ArraySpec{{Name: "t", ElemSize: 4, Mem: mem, Disk: mem}}
	g := FromSpecs("grp", 2, specs)
	var out memWriterAt
	disks := []storage.Disk{storage.NewMemDisk(), storage.NewMemDisk()}
	for i, d := range disks {
		f, err := d.Create(specs[0].FileName("", i))
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt([]byte{1, 2, 3}, 0)
		f.Close()
	}
	err := Assemble(&out, g, "t", "", disks)
	if !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("truncated file: %v, want ErrCorrupt", err)
	}
}

func TestAssembleWithSuffix(t *testing.T) {
	// Timestep files: assemble a specific step.
	shape := []int{8, 8}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{4})
	specs := []core.ArraySpec{{Name: "ts", ElemSize: 4, Mem: mem, Disk: mem}}
	cfg := core.Config{NumClients: 4, NumServers: 2}
	disks := make([]storage.Disk, 2)
	for i := range disks {
		disks[i] = storage.NewMemDisk()
	}
	if err := core.RunReal(cfg, disks, func(cl *core.Client) error {
		bufs := make([][]byte, 1)
		bufs[0] = make([]byte, specs[0].MemChunkBytes(cl.Rank()))
		fillPattern(bufs[0], specs[0].MemChunk(cl.Rank()), shape)
		return cl.WriteArrays(".t7", specs, bufs)
	}); err != nil {
		t.Fatal(err)
	}
	g := FromSpecs("grp", 2, specs)
	var out memWriterAt
	if err := Assemble(&out, g, "ts", ".t7", disks); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, array.Box(shape).NumElems()*4)
	fillPattern(want, array.Box(shape), shape)
	if !bytes.Equal(out.b, want) {
		t.Fatal("suffix assembly produced wrong bytes")
	}
	// Wrong suffix: files missing.
	var out2 memWriterAt
	if err := Assemble(&out2, g, "ts", ".t8", disks); err == nil {
		t.Fatal("assembly of missing timestep succeeded")
	}
}

// degradedSpecs is a 16x16 int32 array held in rows by 3 clients and
// stored in 4 column chunks, so each of 2 I/O nodes owns 2 of them with
// both up and all 4 go to the survivor when one is down.
func degradedSpecs() []core.ArraySpec {
	shape := []int{16, 16}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{3, 1})
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{4})
	return []core.ArraySpec{{Name: "recov", ElemSize: 4, Mem: mem, Disk: disk}}
}

// checkpointXOR runs one collective ".ckpt" write of the fill pattern
// XORed with key, with the I/O nodes in down crashed before it starts.
func checkpointXOR(t *testing.T, specs []core.ArraySpec, disks []storage.Disk, key byte, down ...int) {
	t.Helper()
	cfg := core.Config{
		NumClients: 3, NumServers: len(disks), SubchunkBytes: 256,
		OpTimeout: 1200 * time.Millisecond, PullRetries: 1,
		Retry: core.RetryPolicy{Max: 3, Backoff: 20 * time.Millisecond},
	}
	plan := mpi.NewFaultPlan(1)
	world := mpi.NewWorld(cfg.WorldSize())
	comms := make([]mpi.Comm, cfg.WorldSize())
	for r := range comms {
		comms[r] = mpi.WrapFault(world.Comm(r), plan, clock.NewReal())
	}
	for _, ion := range down {
		plan.CrashRank(cfg.ServerRank(ion))
	}
	errs, _ := core.RunWith(cfg, comms, disks, func(cl *core.Client) error {
		bufs := make([][]byte, len(specs))
		for i, spec := range specs {
			bufs[i] = make([]byte, spec.MemChunkBytes(cl.Rank()))
			fillPattern(bufs[i], spec.MemChunk(cl.Rank()), spec.Mem.Shape)
			xor(bufs[i], key)
		}
		return cl.WriteArrays(".ckpt", specs, bufs)
	})
	for r, err := range errs {
		if err != nil && !plan.Crashed(r) {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func xor(b []byte, key byte) {
	for i := range b {
		b[i] ^= key
	}
}

// assembledXOR assembles the checkpoint and fails unless it is the
// whole array's pattern XORed with key. Node 0's committed file must be
// the degraded one, holding all four chunks.
func assembledXOR(t *testing.T, specs []core.ArraySpec, disks []storage.Disk, key byte) {
	t.Helper()
	m, err := storage.ReadManifest(disks[0], storage.ManifestName(specs[0].FileName(".ckpt", 0)))
	if err != nil || !m.Degraded || len(m.Chunks) != 4 {
		t.Fatalf("node 0's committed manifest %+v (%v) is not the degraded epoch's", m, err)
	}
	var out memWriterAt
	if err := Assemble(&out, FromSpecs("grp", len(disks), specs), specs[0].Name, ".ckpt", disks); err != nil {
		t.Fatal(err)
	}
	shape := specs[0].Mem.Shape
	want := make([]byte, array.Box(shape).NumElems()*4)
	fillPattern(want, array.Box(shape), shape)
	xor(want, key)
	if diff := countDiff(out.b, want); diff != 0 || len(out.b) != len(want) {
		t.Fatalf("assembled %d bytes, %d of them differ from the checkpoint's %d", len(out.b), diff, len(want))
	}
}

func countDiff(a, b []byte) (n int) {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// TestAssembleDegradedOverEarlierEpoch: a checkpoint written with both
// I/O nodes up, then again with node 1 down. Node 0's file holds all
// four chunks of the decided epoch; node 1 still holds the first
// epoch's two, which must not be read.
func TestAssembleDegradedOverEarlierEpoch(t *testing.T) {
	specs := degradedSpecs()
	disks := []storage.Disk{storage.NewMemDisk(), storage.NewMemDisk()}
	checkpointXOR(t, specs, disks, 0x11)
	checkpointXOR(t, specs, disks, 0x22, 1)
	assembledXOR(t, specs, disks, 0x22)
}

// TestAssembleDegradedFirstEpoch: the only checkpoint was written with
// node 1 down, which therefore holds no file at all.
func TestAssembleDegradedFirstEpoch(t *testing.T) {
	specs := degradedSpecs()
	disks := []storage.Disk{storage.NewMemDisk(), storage.NewMemDisk()}
	checkpointXOR(t, specs, disks, 0x33, 1)
	assembledXOR(t, specs, disks, 0x33)
}
