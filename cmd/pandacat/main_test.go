package main

import (
	"encoding/binary"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"panda"
)

// TestPandacatAssemblesATimestep drives the command as a sequential
// consumer would: a cluster writes two timesteps of a naturally chunked
// array and saves the schema file; pandacat, given only that file and
// the data directory, lists the data set and reassembles the second
// timestep in traditional order.
func TestPandacatAssemblesATimestep(t *testing.T) {
	dir := t.TempDir()
	shape := []int{8, 12}
	layout := panda.NewLayout("l", []int{2, 2})
	dists := []panda.Distribution{panda.BLOCK, panda.BLOCK}
	a, err := panda.NewArray("field", shape, 4, layout, dists, layout, dists)
	if err != nil {
		t.Fatal(err)
	}
	g := panda.NewGroup("sim")
	g.Include(a)
	cluster, err := panda.NewCluster(panda.Config{ComputeNodes: 4, IONodes: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(func(n *panda.Node) error {
		buf := make([]byte, n.ChunkBytes(a))
		if err := n.Bind(a, buf); err != nil {
			return err
		}
		lo, hi := n.ChunkBounds(a)
		for step := uint32(0); step < 2; step++ {
			i := 0
			for x := lo[0]; x < hi[0]; x++ {
				for y := lo[1]; y < hi[1]; y++ {
					binary.LittleEndian.PutUint32(buf[i:], step<<16|uint32(x*shape[1]+y))
					i += 4
				}
			}
			if err := n.Timestep(g); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	schema := filepath.Join(dir, "sim.schema.json")
	if err := cluster.SaveSchema(g, schema); err != nil {
		t.Fatal(err)
	}

	pandacat := func(args ...string) string {
		t.Helper()
		out, err := exec.Command("go", append([]string{"run", "."}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("pandacat %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	if out := pandacat("-schema", schema, "-list"); !strings.Contains(out, "field") {
		t.Fatalf("-list does not name the array:\n%s", out)
	}
	raw := filepath.Join(dir, "field.t1.raw")
	pandacat("-schema", schema, "-data", dir, "-array", "field", "-suffix", ".t1", "-o", raw)
	data, err := os.ReadFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != shape[0]*shape[1]*4 {
		t.Fatalf("assembled %d bytes, want %d", len(data), shape[0]*shape[1]*4)
	}
	for i := 0; i+4 <= len(data); i += 4 {
		if got, want := binary.LittleEndian.Uint32(data[i:]), 1<<16|uint32(i/4); got != want {
			t.Fatalf("element %d = %#x, want %#x: not timestep 1 in row-major order", i/4, got, want)
		}
	}
}
