package panda

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"panda/internal/storage"
)

// checkpointSteps writes a 16x16 int32 field, stored in 4 natural
// chunks over 2 I/O nodes under dir, as one checkpoint per step, each
// element step<<16 | its row-major index, and saves the schema file.
func checkpointSteps(t *testing.T, dir string, steps int) *Schema {
	t.Helper()
	shape := []int{16, 16}
	layout := NewLayout("l", []int{2, 2})
	dists := []Distribution{BLOCK, BLOCK}
	a, err := NewArray("field", shape, 4, layout, dists, layout, dists)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroup("sim")
	g.Include(a)
	cluster, err := NewCluster(Config{ComputeNodes: 4, IONodes: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(func(n *Node) error {
		buf := make([]byte, n.ChunkBytes(a))
		if err := n.Bind(a, buf); err != nil {
			return err
		}
		lo, hi := n.ChunkBounds(a)
		for step := 0; step < steps; step++ {
			i := 0
			for x := lo[0]; x < hi[0]; x++ {
				for y := lo[1]; y < hi[1]; y++ {
					binary.LittleEndian.PutUint32(buf[i:], uint32(step<<16|x*shape[1]+y))
					i += 4
				}
			}
			if err := n.Checkpoint(g); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sim.schema.json")
	if err := cluster.SaveSchema(g, path); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSchema(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// snapshot maps every path under dir, directories included, to its
// bytes.
func snapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	if err := filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			files[p] = "dir"
			return err
		}
		b, err := os.ReadFile(p)
		files[p] = string(b)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return files
}

// TestAssembleInterruptedCommit: the second checkpoint's decision is on
// I/O node 0, but node 1's renames never ran: its committed names still
// hold the first checkpoint and the second is under its temp names.
// AssembleArray returns the second checkpoint and leaves every name and
// byte of the data set as it found them.
func TestAssembleInterruptedCommit(t *testing.T) {
	dir := t.TempDir()
	s := checkpointSteps(t, dir, 2)
	ion1, err := storage.NewOSDisk(storage.NodeDir(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	base, prev := "field.ckpt.1", storage.PrevName("field.ckpt.1")
	for _, mv := range [][2]string{
		{base, storage.EpochName(base, 2)},
		{storage.ManifestName(base), storage.EpochManifestName(base, 2)},
		{prev, base},
		{storage.ManifestName(prev), storage.ManifestName(base)},
	} {
		if err := ion1.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshot(t, dir)

	out := filepath.Join(t.TempDir(), "field.raw")
	if err := AssembleArray(s, dir, "field", ".ckpt", out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 16*16*4 {
		t.Fatalf("assembled %d bytes", len(data))
	}
	for i := 0; i+4 <= len(data); i += 4 {
		if got, want := binary.LittleEndian.Uint32(data[i:]), uint32(1<<16|i/4); got != want {
			t.Fatalf("element %d = %#x, want %#x: not the decided checkpoint", i/4, got, want)
		}
	}
	if after := snapshot(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatal("assembling changed the data set")
	}
}

// TestAssembleDecidedEpochMissing: the decision names an epoch no I/O
// node holds. AssembleArray fails typed and leaves no output file.
func TestAssembleDecidedEpochMissing(t *testing.T) {
	dir := t.TempDir()
	s := checkpointSteps(t, dir, 1)
	ion0, err := storage.NewOSDisk(storage.NodeDir(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteDecision(ion0, "field.ckpt", 5); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "field.raw")
	if err := AssembleArray(s, dir, "field", ".ckpt", out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("AssembleArray = %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a failed assembly left %s behind (%v)", out, err)
	}
}
