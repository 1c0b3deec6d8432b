package panda

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"panda/internal/core"
	"panda/internal/storage"
)

// catalogBytes reads the daemon's catalog file off the master server's
// disk directory.
func catalogBytes(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "ion0", storage.CatalogFileName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkpointArrays creates every array in a fresh session and writes
// each one's checkpoint with a seed-derived pattern per member.
func checkpointArrays(t *testing.T, addr string, arrs []*Array, seed int64) {
	t.Helper()
	s, err := Dial(SessionConfig{Addr: addr, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	g := NewGroup("ckpt")
	for _, a := range arrs {
		if err := s.Create(a); err != nil {
			t.Fatalf("create %s: %v", a.Name(), err)
		}
		g.Include(a)
	}
	err = s.Run(func(n *Node) error {
		for i, a := range arrs {
			buf := make([]byte, n.ChunkBytes(a))
			fillPattern(buf, seed+int64(i*64+n.Rank()))
			if err := n.Bind(a, buf); err != nil {
				return err
			}
		}
		return n.Checkpoint(g)
	})
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
}

// restartArrays opens every name in a fresh session, restarts the
// group from its checkpoint and checks it bit-exact against the
// pattern checkpointArrays wrote.
func restartArrays(t *testing.T, addr string, names []string, seed int64) {
	t.Helper()
	s, err := Dial(SessionConfig{Addr: addr, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	g := NewGroup("ckpt")
	arrs := make([]*Array, len(names))
	for i, name := range names {
		if arrs[i], err = s.Open(name); err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		g.Include(arrs[i])
	}
	err = s.Run(func(n *Node) error {
		mine := make([][]byte, len(arrs))
		for i, a := range arrs {
			mine[i] = make([]byte, n.ChunkBytes(a))
			if err := n.Bind(a, mine[i]); err != nil {
				return err
			}
		}
		if err := n.Restart(g); err != nil {
			return err
		}
		for i := range arrs {
			want := make([]byte, len(mine[i]))
			fillPattern(want, seed+int64(i*64+n.Rank()))
			if !bytes.Equal(mine[i], want) {
				return fmt.Errorf("%s chunk %d: restart differs from checkpoint", names[i], n.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
}

// TestDaemonRebalanceDottedNames: with arrays "x" and "x.y" (different
// shapes) both checkpointed, the decision key "x.y.ckpt" belongs to
// x.y, not to x under a ".y.ckpt" suffix — a rebalance migrates both
// checkpoints and each restarts bit-exact afterwards.
func TestDaemonRebalanceDottedNames(t *testing.T) {
	d := startTestDaemon(t, t.TempDir(), Tuning{})
	defer d.Drain() //nolint:errcheck

	x := sessionArray(t, "x", 2)
	xy, err := NewArray("x.y", []int{32, 16}, 4,
		NewLayout("mem", []int{2}), []Distribution{BLOCK, NONE},
		NewLayout("disk", []int{2}), []Distribution{NONE, BLOCK})
	if err != nil {
		t.Fatal(err)
	}
	checkpointArrays(t, d.Addr(), []*Array{x, xy}, 7)

	want := []arrayInstance{{"x", ".ckpt"}, {"x.y", ".ckpt"}}
	if got, err := d.committedInstances(); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("committed instances %v, %v; want %v", got, err, want)
	}
	if err := d.Rebalance("test"); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	restartArrays(t, d.Addr(), []string{"x", "x.y"}, 7)
}

// TestDaemonOpenIsReadOnly: the catalog records what an array is, so
// opening, re-creating and restarting over a written array leave its
// file byte-identical — nothing about a write is mirrored into it.
func TestDaemonOpenIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	d := startTestDaemon(t, dir, Tuning{})
	a := sessionArray(t, "R", 2)
	checkpointArrays(t, d.Addr(), []*Array{a}, 3)
	churnWrite(t, d.Addr(), []string{"R"}, 2, 5)
	before := catalogBytes(t, dir)

	s, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open("R"); err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.Create(a); err != nil {
		t.Fatalf("re-create identical: %v", err)
	}
	s.Close() //nolint:errcheck
	if after := catalogBytes(t, dir); !bytes.Equal(after, before) {
		t.Fatalf("open rewrote the catalog:\n before %q\n after  %q", before, after)
	}
	if err := d.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	d2 := startTestDaemon(t, dir, Tuning{})
	defer d2.Drain() //nolint:errcheck
	if after := catalogBytes(t, dir); !bytes.Equal(after, before) {
		t.Fatalf("restart rewrote the catalog:\n before %q\n after  %q", before, after)
	}
	churnVerify(t, d2.Addr(), []string{"R"}, 2, 5)
	restartArrays(t, d2.Addr(), []string{"R"}, 3)
}

// TestDaemonConcurrentCreate: two sessions racing to create one name
// under different schemas get exactly one success and one
// ErrSchemaMismatch — the check and the create are one step.
func TestDaemonConcurrentCreate(t *testing.T) {
	d := startTestDaemon(t, t.TempDir(), Tuning{})
	defer d.Drain() //nolint:errcheck

	sessions := make([]*Session, 2)
	for i := range sessions {
		s, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close() //nolint:errcheck
		sessions[i] = s
	}
	for round := 0; round < 20; round++ {
		name := fmt.Sprintf("C%d", round)
		schemas := []*Array{sessionArray(t, name, 1), nil}
		var err error
		schemas[1], err = NewArray(name, []int{16, 8}, 4,
			NewLayout("mem", []int{1}), []Distribution{BLOCK, NONE},
			NewLayout("disk", []int{2}), []Distribution{NONE, BLOCK})
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i := range sessions {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = sessions[i].Create(schemas[i])
			}(i)
		}
		wg.Wait()
		won, refused := 0, 0
		for _, err := range errs {
			switch {
			case err == nil:
				won++
			case errors.Is(err, ErrSchemaMismatch):
				refused++
			default:
				t.Fatalf("round %d: unexpected create error %v", round, err)
			}
		}
		if won != 1 || refused != 1 {
			t.Fatalf("round %d: %d creates won, %d refused (%v); want one each", round, won, refused, errs)
		}
	}
}

// TestDaemonLoadsOlderCatalog: a catalog written when entries also
// carried an epoch, owners, an element size and a fingerprint still
// loads; its arrays open by name under the stored schema and refuse a
// different one.
func TestDaemonLoadsOlderCatalog(t *testing.T) {
	dir := t.TempDir()
	a := sessionArray(t, "old", 2)
	payload, err := json.Marshal([]map[string]any{{
		"name":        "old",
		"elem_size":   a.spec.ElemSize,
		"fingerprint": core.SpecFingerprint(a.spec),
		"spec":        core.EncodeSpec(a.spec),
		"epoch":       3,
		"owners":      []int{0, 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	file := make([]byte, 12, 12+len(payload))
	binary.BigEndian.PutUint32(file[0:], 0x50434154) // "PCAT"
	binary.BigEndian.PutUint32(file[4:], storage.CRC32C(payload))
	binary.BigEndian.PutUint32(file[8:], uint32(len(payload)))
	file = append(file, payload...)
	if err := os.MkdirAll(filepath.Join(dir, "ion0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ion0", storage.CatalogFileName), file, 0o644); err != nil {
		t.Fatal(err)
	}

	d := startTestDaemon(t, dir, Tuning{})
	defer d.Drain() //nolint:errcheck
	s, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	got, err := s.Open("old")
	if err != nil {
		t.Fatalf("open by name: %v", err)
	}
	if core.SpecFingerprint(got.spec) != core.SpecFingerprint(a.spec) {
		t.Fatalf("opened schema %+v, want %+v", got.spec, a.spec)
	}
	other, err := NewArray("old", []int{32, 8}, 4,
		NewLayout("mem", []int{2}), []Distribution{BLOCK, NONE},
		NewLayout("disk", []int{2}), []Distribution{NONE, BLOCK})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create(other); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("create under another schema: %v, want ErrSchemaMismatch", err)
	}
}

// TestDaemonRefusesUnreadableCatalog: only a missing catalog is a fresh
// one. A daemon whose catalog cannot be read (a directory in its place)
// must refuse to start, not forget every array's name, and must leave
// the obstruction as it found it.
func TestDaemonRefusesUnreadableCatalog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ion0", storage.CatalogFileName)
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if d, err := StartDaemon(DaemonConfig{Dir: dir, Logf: t.Logf}); err == nil {
		d.Drain() //nolint:errcheck
		t.Fatal("StartDaemon loaded an unreadable catalog as an empty one")
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Fatalf("the catalog's place was disturbed: %v, %v", fi, err)
	}
	if ents, err := os.ReadDir(path); err != nil || len(ents) != 0 {
		t.Fatalf("the catalog's place was disturbed: %v, %v", ents, err)
	}
}
