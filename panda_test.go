package panda

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"panda/internal/core"
	"panda/internal/storage"
)

// fillChunk writes a pattern keyed by (seed, position) into a chunk
// buffer.
func fillChunk(buf []byte, seed uint32) {
	for i := 0; i+4 <= len(buf); i += 4 {
		binary.LittleEndian.PutUint32(buf[i:], seed+uint32(i))
	}
}

func checkChunk(buf []byte, seed uint32) error {
	for i := 0; i+4 <= len(buf); i += 4 {
		if got := binary.LittleEndian.Uint32(buf[i:]); got != seed+uint32(i) {
			return fmt.Errorf("byte %d: got %d, want %d", i, got, seed+uint32(i))
		}
	}
	return nil
}

func figure2Arrays(t *testing.T) (*Array, *Array, *Array, *Group) {
	t.Helper()
	memory := NewLayout("memory layout", []int{2, 2})
	disk := NewLayout("disk layout", []int{2})
	mk := func(name string, size []int) *Array {
		a, err := NewArray(name, size, 4,
			memory, []Distribution{BLOCK, BLOCK, NONE},
			disk, []Distribution{BLOCK, NONE, NONE})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	temperature := mk("temperature", []int{16, 16, 16})
	pressure := mk("pressure", []int{16, 16, 16})
	density := mk("density", []int{8, 8, 8})
	sim := NewGroup("Sim2")
	sim.Include(temperature)
	sim.Include(pressure)
	sim.Include(density)
	return temperature, pressure, density, sim
}

func TestFigure2Workflow(t *testing.T) {
	// The paper's Figure 2, condensed: three arrays in a group,
	// repeated timesteps, one checkpoint, then a restart. Each timestep
	// has its own contents, and every step comes back through
	// ReadTimestep, as does a plain Write of the group through Read.
	temperature, pressure, density, sim := figure2Arrays(t)
	cluster, err := NewCluster(Config{ComputeNodes: 4, IONodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	seed := func(n *Node, step int) uint32 { return uint32(n.Rank()*1000 + step*100_000) }
	err = cluster.Run(func(n *Node) error {
		var bufs [][]byte
		for _, a := range sim.Arrays() {
			buf := make([]byte, n.ChunkBytes(a))
			if err := n.Bind(a, buf); err != nil {
				return err
			}
			bufs = append(bufs, buf)
		}
		fill := func(step int) {
			for _, b := range bufs {
				fillChunk(b, seed(n, step))
			}
		}
		// check zeroes the buffers, runs read and wants step's contents.
		check := func(what string, step int, read func() error) error {
			for _, b := range bufs {
				clear(b)
			}
			if err := read(); err != nil {
				return fmt.Errorf("%s: %w", what, err)
			}
			for i, b := range bufs {
				if err := checkChunk(b, seed(n, step)); err != nil {
					return fmt.Errorf("node %d: %s of %s: %w", n.Rank(), what, sim.Arrays()[i].Name(), err)
				}
			}
			return nil
		}
		for i := 0; i < 3; i++ {
			fill(i)
			if err := n.Timestep(sim); err != nil {
				return err
			}
			if i == 1 {
				if err := n.Checkpoint(sim); err != nil {
					return err
				}
			}
		}
		if n.TimestepCount(sim) != 3 {
			return fmt.Errorf("timestep count %d", n.TimestepCount(sim))
		}
		for step := 0; step < 3; step++ {
			if err := check(fmt.Sprintf("ReadTimestep %d", step), step, func() error { return n.ReadTimestep(sim, step) }); err != nil {
				return err
			}
		}
		fill(3)
		if err := n.Write(sim); err != nil {
			return err
		}
		return check("Read", 3, func() error { return n.Read(sim) })
	})
	if err != nil {
		t.Fatal(err)
	}

	// Restart on the same cluster: fresh buffers restored from the
	// checkpoint, which holds step 1.
	err = cluster.Run(func(n *Node) error {
		for _, a := range []*Array{temperature, pressure, density} {
			if err := n.Bind(a, make([]byte, n.ChunkBytes(a))); err != nil {
				return err
			}
		}
		if err := n.Restart(sim); err != nil {
			return err
		}
		for _, a := range sim.Arrays() {
			buf := make([]byte, n.ChunkBytes(a))
			fillChunk(buf, seed(n, 1))
			got, _, err := n.boundFor(a)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, buf) {
				return fmt.Errorf("node %d: %s restart mismatch", n.Rank(), a.Name())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClusterKnobsRoundTrip checkpoints and restarts the Figure 2 group
// under each Config knob off its default, one at a time: the facade
// hands every one of them to the deployment, and none may cost a byte.
func TestClusterKnobsRoundTrip(t *testing.T) {
	for name, knob := range map[string]Config{
		"SubchunkBytes": Config{SubchunkBytes: 1 << 10}, // the 16 KiB chunks split sixteen ways
		"Pipeline":      Config{SubchunkBytes: 1 << 10, Pipeline: 4},
		"ReadAhead":     Config{SubchunkBytes: 1 << 10, ReadAhead: 2},
		"PlainWrites":   Config{PlainWrites: true},
		"Retries": Config{OpTimeout: 30 * time.Second, PullRetries: 2,
			Retry: RetryPolicy{Max: 1, Backoff: time.Millisecond, Jitter: 0.5}},
	} {
		t.Run(name, func(t *testing.T) {
			_, _, _, sim := figure2Arrays(t)
			knob.ComputeNodes, knob.IONodes, knob.Dir = 4, 2, t.TempDir()
			cluster, err := NewCluster(knob)
			if err != nil {
				t.Fatal(err)
			}
			bind := func(n *Node, fill bool) error {
				for _, a := range sim.Arrays() {
					buf := make([]byte, n.ChunkBytes(a))
					if fill {
						fillChunk(buf, uint32(n.Rank()*1000))
					}
					if err := n.Bind(a, buf); err != nil {
						return err
					}
				}
				return nil
			}
			if err := cluster.Run(func(n *Node) error {
				if err := bind(n, true); err != nil {
					return err
				}
				return n.Checkpoint(sim)
			}); err != nil {
				t.Fatal(err)
			}
			if err := cluster.Run(func(n *Node) error {
				if err := bind(n, false); err != nil {
					return err
				}
				if err := n.Restart(sim); err != nil {
					return err
				}
				for _, a := range sim.Arrays() {
					got, _, _ := n.boundFor(a)
					if err := checkChunk(got, uint32(n.Rank()*1000)); err != nil {
						return fmt.Errorf("node %d, %s: %w", n.Rank(), a.Name(), err)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			manifests, _ := filepath.Glob(filepath.Join(knob.Dir, "ion*", "*.mfst"))
			if plain := len(manifests) == 0; plain != knob.PlainWrites {
				t.Fatalf("PlainWrites=%v but %d manifests on disk", knob.PlainWrites, len(manifests))
			}
		})
	}
}

// boundFor exposes bound buffers for test verification.
func (n *Node) boundFor(a *Array) ([]byte, int64, error) {
	buf, ok := n.data[a]
	if !ok {
		return nil, 0, fmt.Errorf("no buffer bound")
	}
	return buf, int64(len(buf)), nil
}

func TestWriteReadSingleArrayOnRealFiles(t *testing.T) {
	dir := t.TempDir()
	memory := NewLayout("mem", []int{2, 2})
	disk := NewLayout("disk", []int{3})
	a, err := NewArray("grid", []int{12, 8}, 8,
		memory, []Distribution{BLOCK, BLOCK},
		disk, []Distribution{BLOCK, NONE})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(Config{ComputeNodes: 4, IONodes: 3, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(func(n *Node) error {
		buf := make([]byte, n.ChunkBytes(a))
		fillChunk(buf, uint32(100+n.Rank()))
		if err := n.Bind(a, buf); err != nil {
			return err
		}
		return n.WriteArray(a)
	}); err != nil {
		t.Fatal(err)
	}
	// Files exist on the host FS.
	for i := 0; i < 3; i++ {
		name := filepath.Join(cluster.IONodeDir(i), fmt.Sprintf("grid.%d", i))
		if _, err := os.Stat(name); err != nil {
			t.Fatalf("expected file %s: %v", name, err)
		}
	}
	// A second cluster over the same directory reads it back.
	cluster2, err := NewCluster(Config{ComputeNodes: 4, IONodes: 3, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster2.Run(func(n *Node) error {
		buf := make([]byte, n.ChunkBytes(a))
		if err := n.Bind(a, buf); err != nil {
			return err
		}
		if err := n.ReadArray(a); err != nil {
			return err
		}
		return checkChunk(buf, uint32(100+n.Rank()))
	}); err != nil {
		t.Fatal(err)
	}
}

func TestConcatenationOnHostFS(t *testing.T) {
	// Traditional-order schema: cat ion0/x.0 ion1/x.1 equals the
	// row-major array.
	dir := t.TempDir()
	memory := NewLayout("mem", []int{4})
	disk := NewLayout("disk", []int{2})
	a, err := NewArray("x", []int{8, 4}, 4,
		memory, []Distribution{BLOCK, NONE},
		disk, []Distribution{BLOCK, NONE})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(Config{ComputeNodes: 4, IONodes: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(func(n *Node) error {
		buf := make([]byte, n.ChunkBytes(a))
		// Global row-major pattern: each node's chunk is rows
		// [rank*2, rank*2+2) of an 8x4 array.
		lo, _ := n.ChunkBounds(a)
		for i := 0; i+4 <= len(buf); i += 4 {
			global := lo[0]*4*4 + i
			binary.LittleEndian.PutUint32(buf[i:], uint32(global))
		}
		if err := n.Bind(a, buf); err != nil {
			return err
		}
		return n.WriteArray(a)
	}); err != nil {
		t.Fatal(err)
	}
	var concat []byte
	for i := 0; i < 2; i++ {
		b, err := os.ReadFile(filepath.Join(cluster.IONodeDir(i), fmt.Sprintf("x.%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		concat = append(concat, b...)
	}
	if len(concat) != 8*4*4 {
		t.Fatalf("concatenation holds %d bytes", len(concat))
	}
	for i := 0; i+4 <= len(concat); i += 4 {
		if got := binary.LittleEndian.Uint32(concat[i:]); got != uint32(i) {
			t.Fatalf("byte %d: %d, not traditional order", i, got)
		}
	}
}

func TestNewArrayValidation(t *testing.T) {
	mem := NewLayout("m", []int{2, 2})
	disk := NewLayout("d", []int{2})
	if _, err := NewArray("a", []int{8, 8}, 4, mem,
		[]Distribution{BLOCK, NONE}, disk, []Distribution{BLOCK, NONE}); err == nil {
		t.Fatal("BLOCK count / layout rank mismatch accepted")
	}
	if _, err := NewArray("a", []int{8, 8}, 4, mem,
		[]Distribution{BLOCK}, disk, []Distribution{BLOCK, NONE}); err == nil {
		t.Fatal("directive rank mismatch accepted")
	}
	if _, err := NewArray("a", []int{8, 8}, 4, nil,
		[]Distribution{BLOCK, BLOCK}, disk, []Distribution{BLOCK, NONE}); err == nil {
		t.Fatal("nil layout accepted")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{ComputeNodes: 0, IONodes: 1}); err == nil {
		t.Fatal("zero compute nodes accepted")
	}
	if _, err := NewCluster(Config{ComputeNodes: 1, IONodes: 0}); err == nil {
		t.Fatal("zero I/O nodes accepted")
	}
}

func TestUnboundArrayFails(t *testing.T) {
	mem := NewLayout("m", []int{2})
	disk := NewLayout("d", []int{1})
	a, _ := NewArray("u", []int{8}, 4, mem, []Distribution{BLOCK}, disk, []Distribution{BLOCK})
	cluster, _ := NewCluster(Config{ComputeNodes: 2, IONodes: 1})
	err := cluster.Run(func(n *Node) error { return n.WriteArray(a) })
	if err == nil {
		t.Fatal("write of unbound array succeeded")
	}
}

func TestBindRejectsWrongSize(t *testing.T) {
	mem := NewLayout("m", []int{2})
	disk := NewLayout("d", []int{1})
	a, _ := NewArray("w", []int{8}, 4, mem, []Distribution{BLOCK}, disk, []Distribution{BLOCK})
	cluster, _ := NewCluster(Config{ComputeNodes: 2, IONodes: 1})
	err := cluster.Run(func(n *Node) error {
		if err := n.Bind(a, make([]byte, 3)); err == nil {
			return fmt.Errorf("bad bind accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	mem := NewLayout("m", []int{2, 2})
	disk := NewLayout("d", []int{4})
	a, err := NewArray("acc", []int{8, 6}, 8, mem,
		[]Distribution{BLOCK, BLOCK}, disk, []Distribution{BLOCK, NONE})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "acc" || a.ElemSize() != 8 || a.TotalBytes() != 8*6*8 {
		t.Fatalf("accessors: %s %d %d", a.Name(), a.ElemSize(), a.TotalBytes())
	}
	if got := a.Size(); got[0] != 8 || got[1] != 6 {
		t.Fatalf("Size = %v", got)
	}
	if mem.Name() != "m" || mem.Size() != 4 || disk.Size() != 4 {
		t.Fatal("layout accessors")
	}
	g := NewGroup("g")
	g.Include(a)
	if g.Name() != "g" || len(g.Arrays()) != 1 {
		t.Fatal("group accessors")
	}
}

func TestSchemaFileAndAssemble(t *testing.T) {
	// Write a group with a non-traditional disk schema, save the
	// schema file, and reassemble an array with no cluster — the
	// sequential-consumer path behind cmd/pandacat.
	dir := t.TempDir()
	memory := NewLayout("m", []int{2, 2})
	disk := NewLayout("d", []int{2, 2}) // natural chunking: NOT trivially concatenable
	a, err := NewArray("field", []int{8, 12}, 4,
		memory, []Distribution{BLOCK, BLOCK},
		disk, []Distribution{BLOCK, BLOCK})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroup("sim")
	g.Include(a)
	cluster, err := NewCluster(Config{ComputeNodes: 4, IONodes: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	shape := []int{8, 12}
	if err := cluster.Run(func(n *Node) error {
		buf := make([]byte, n.ChunkBytes(a))
		lo, hi := n.ChunkBounds(a)
		i := 0
		for x := lo[0]; x < hi[0]; x++ {
			for y := lo[1]; y < hi[1]; y++ {
				binary.LittleEndian.PutUint32(buf[i:], uint32(x*shape[1]+y))
				i += 4
			}
		}
		if err := n.Bind(a, buf); err != nil {
			return err
		}
		return n.Write(g)
	}); err != nil {
		t.Fatal(err)
	}
	schemaPath := filepath.Join(dir, "sim.schema.json")
	if err := cluster.SaveSchema(g, schemaPath); err != nil {
		t.Fatal(err)
	}

	s, err := LoadSchema(schemaPath)
	if err != nil {
		t.Fatal(err)
	}
	if s.Group() != "sim" || s.IONodes() != 2 || len(s.ArrayNames()) != 1 || s.ArrayNames()[0] != "field" {
		t.Fatalf("schema header: %s %d %v", s.Group(), s.IONodes(), s.ArrayNames())
	}
	outPath := filepath.Join(dir, "field.raw")
	if err := AssembleArray(s, dir, "field", "", outPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 8*12*4 {
		t.Fatalf("assembled %d bytes", len(data))
	}
	for i := 0; i+4 <= len(data); i += 4 {
		if got := binary.LittleEndian.Uint32(data[i:]); got != uint32(i/4) {
			t.Fatalf("element %d = %d: not row-major", i/4, got)
		}
	}
}

func TestLoadSchemaErrors(t *testing.T) {
	if _, err := LoadSchema(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing schema accepted")
	}
}

// TestManifestChunkListFailsTyped corrupts the chunk list of a committed
// manifest three ways — an index outside the disk schema, a length that
// is not the chunk's, an offset past the file — and restarts over each.
// The list is checked against the schema before anything is planned
// from it, so every Restart fails as ErrCorrupt on every node with the
// disks untouched, and the servers go on to serve the repaired epoch.
// (At the parent commit the first case panicked in Schema.Chunk under
// Server.Serve and took the process down.)
func TestManifestChunkListFailsTyped(t *testing.T) {
	dir := t.TempDir()
	a, err := NewArray("state", []int{64, 16}, 8,
		NewLayout("mem", []int{2}), []Distribution{BLOCK, NONE},
		NewLayout("disk", []int{2}), []Distribution{BLOCK, NONE})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroup("ckpt")
	g.Include(a)
	cluster, err := NewCluster(Config{ComputeNodes: 2, IONodes: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	corruptions := []struct {
		what string
		edit func(m *storage.Manifest)
	}{
		{"chunk index out of range", func(m *storage.Manifest) { m.Chunks[0].ChunkIdx = 9999 }},
		{"wrong chunk length", func(m *storage.Manifest) { m.Chunks[0].Bytes += 8 }},
		{"offset past the file", func(m *storage.Manifest) { m.Chunks[0].Offset = m.TotalBytes + 1 }},
	}
	if err := cluster.Run(func(n *Node) error {
		buf := make([]byte, n.ChunkBytes(a))
		fillChunk(buf, uint32(n.Rank()))
		if err := n.Bind(a, buf); err != nil {
			return err
		}
		if err := n.Checkpoint(g); err != nil {
			return err
		}
		// Rank 0 leads: an operation starts when its request leaves, so
		// what it does between two collectives is done before the second
		// starts on any server.
		var path string
		var good []byte
		if n.Rank() == 0 {
			paths, err := filepath.Glob(filepath.Join(cluster.IONodeDir(0), "*.mfst"))
			if err != nil || len(paths) != 1 {
				return fmt.Errorf("manifests on ion0: %v, %v", paths, err)
			}
			path = paths[0]
			if good, err = os.ReadFile(path); err != nil {
				return err
			}
		}
		for _, c := range corruptions {
			var before map[string]string
			if n.Rank() == 0 {
				var m storage.Manifest
				if err := json.Unmarshal(good, &m); err != nil {
					return err
				}
				c.edit(&m)
				bad, err := json.Marshal(&m)
				if err != nil {
					return err
				}
				if err := os.WriteFile(path, bad, 0o644); err != nil {
					return err
				}
				before = dirState(t, dir)
			}
			if err := n.Restart(g); !errors.Is(err, ErrCorrupt) || !core.IsTyped(err) {
				return fmt.Errorf("node %d, %s: Restart: %v, want ErrCorrupt", n.Rank(), c.what, err)
			}
			if n.Rank() == 0 {
				for p, data := range dirState(t, dir) {
					if before[p] != data {
						return fmt.Errorf("%s: %s changed under a Restart that failed", c.what, p)
					}
				}
				if err := os.WriteFile(path, good, 0o644); err != nil {
					return err
				}
			}
			clear(buf)
			if err := n.Restart(g); err != nil {
				return fmt.Errorf("node %d: Restart of the repaired epoch after %s: %w", n.Rank(), c.what, err)
			}
			if err := checkChunk(buf, uint32(n.Rank())); err != nil {
				return fmt.Errorf("node %d: after %s: %w", n.Rank(), c.what, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// dirState maps every file under root to its contents.
func dirState(t *testing.T, root string) map[string]string {
	t.Helper()
	state := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		state[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// TestGarbledDecisionRecordFailsTyped corrupts a key's commit decision
// record between two checkpoints. Read as "no decision" it would restart
// the key at epoch 1 under the committed epoch; instead the next
// Checkpoint and a Restart must both fail as ErrCorrupt on every node,
// leave the disks as they were, and leave the record for fsck to report.
func TestGarbledDecisionRecordFailsTyped(t *testing.T) {
	decisionRecordFailsTyped(t, func(record string) error {
		return os.WriteFile(record, []byte("{not json"), 0o644)
	})
}

// TestUnreadableDecisionRecordFailsTyped is the same with a record that
// exists but cannot be read at all (a directory in its place): only a
// missing record means "no decision".
func TestUnreadableDecisionRecordFailsTyped(t *testing.T) {
	decisionRecordFailsTyped(t, func(record string) error {
		if err := os.Remove(record); err != nil {
			return err
		}
		return os.Mkdir(record, 0o755)
	})
}

// decisionRecordFailsTyped checkpoints twice with damage done to the
// decision record in between, and checks that the second Checkpoint and
// a Restart fail typed on every node, change nothing on disk, and that
// fsck reports the record.
func decisionRecordFailsTyped(t *testing.T, damage func(record string) error) {
	dir := t.TempDir()
	_, _, _, sim := figure2Arrays(t)
	cluster, err := NewCluster(Config{ComputeNodes: 4, IONodes: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	record := filepath.Join(cluster.IONodeDir(0), "temperature.ckpt.decision")
	var before map[string]string
	if err := cluster.Run(func(n *Node) error {
		for _, a := range sim.arrays {
			buf := make([]byte, n.ChunkBytes(a))
			fillChunk(buf, uint32(n.Rank()))
			if err := n.Bind(a, buf); err != nil {
				return err
			}
		}
		if err := n.Checkpoint(sim); err != nil {
			return err
		}
		if n.Rank() == 0 {
			// Rank 0's Checkpoint has returned, so the operation is
			// complete on every server and the disks are quiet.
			if err := damage(record); err != nil {
				return err
			}
			before = dirState(t, dir)
		}
		if err := n.Checkpoint(sim); !errors.Is(err, ErrCorrupt) || !core.IsTyped(err) {
			return fmt.Errorf("node %d: Checkpoint over a garbled decision record: %v, want ErrCorrupt", n.Rank(), err)
		}
		if err := n.Restart(sim); !errors.Is(err, ErrCorrupt) || !core.IsTyped(err) {
			return fmt.Errorf("node %d: Restart over a garbled decision record: %v, want ErrCorrupt", n.Rank(), err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	after := dirState(t, dir)
	if len(after) != len(before) {
		t.Errorf("%d files on disk after the failed operations, %d before", len(after), len(before))
	}
	for path, data := range before {
		if after[path] != data {
			t.Errorf("%s changed under an operation that failed", path)
		}
	}

	disks := make([]storage.Disk, 2)
	for i := range disks {
		if disks[i], err = storage.NewOSDisk(cluster.IONodeDir(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := storage.Scrub(disks, false)
	if err != nil {
		t.Fatal(err)
	}
	reported := false
	for _, is := range rep.Issues {
		reported = reported || (is.Name == "temperature.ckpt.decision" && is.Severity == storage.SevError)
	}
	if !reported || rep.OK() {
		t.Errorf("scrub does not report the garbled record: %+v", rep.Issues)
	}
}

// TestGarbledManifestFailsTyped: a server whose committed manifest
// exists but cannot be parsed holds bytes of unknown epoch. A 2-server
// checkpoint at epoch 2 whose server-1 manifest is garbled, and whose
// plain file holds its epoch-1 bytes, must fail Restart typed ErrCorrupt
// on every node rather than serve that file as a legacy one (which
// would assemble a mix of the two epochs with no error).
func TestGarbledManifestFailsTyped(t *testing.T) {
	dir := t.TempDir()
	_, _, _, sim := figure2Arrays(t)
	cluster, err := NewCluster(Config{ComputeNodes: 4, IONodes: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	bind := func(n *Node) error {
		for _, a := range sim.arrays {
			if err := n.Bind(a, make([]byte, n.ChunkBytes(a))); err != nil {
				return err
			}
		}
		return nil
	}
	if err := cluster.Run(func(n *Node) error {
		if err := bind(n); err != nil {
			return err
		}
		for step := uint32(1); step <= 2; step++ {
			for _, a := range sim.arrays {
				fillChunk(n.data[a], 1000*step+uint32(n.Rank()))
			}
			if err := n.Checkpoint(sim); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Epoch 2 is committed and the servers have exited; server 1 keeps
	// epoch 1 as the retained previous copy. Put those bytes under the
	// plain name and garble the manifest that describes it.
	base := filepath.Join(cluster.IONodeDir(1), "temperature.ckpt.1")
	epoch1, err := os.ReadFile(base + ".prev")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, epoch1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base+".mfst", []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(func(n *Node) error {
		if err := bind(n); err != nil {
			return err
		}
		if err := n.Restart(sim); !errors.Is(err, ErrCorrupt) || !core.IsTyped(err) {
			return fmt.Errorf("node %d: Restart over a garbled manifest: %v, want ErrCorrupt", n.Rank(), err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
