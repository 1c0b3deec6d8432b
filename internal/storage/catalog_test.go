package storage

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// TestCatalogAddPersists: Add catalogues a new name durably and hands
// back the existing entry, untouched, for a name already taken.
func TestCatalogAddPersists(t *testing.T) {
	disk := NewMemDisk()
	cat, err := LoadCatalog(disk)
	if err != nil {
		t.Fatal(err)
	}
	if e, err := cat.Add(CatalogEntry{Name: "a", Spec: []byte{1}}); err != nil || !bytes.Equal(e.Spec, []byte{1}) {
		t.Fatalf("Add new: %+v, %v", e, err)
	}
	if e, err := cat.Add(CatalogEntry{Name: "a", Spec: []byte{2}}); err != nil || !bytes.Equal(e.Spec, []byte{1}) {
		t.Fatalf("Add taken name: %+v, %v; want the first entry back", e, err)
	}
	again, err := LoadCatalog(disk)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := again.Get("a"); !ok || !bytes.Equal(e.Spec, []byte{1}) || again.Len() != 1 {
		t.Fatalf("reloaded catalog: %+v ok=%v len=%d", e, ok, again.Len())
	}
}

// TestLoadCatalogRejectsDamage: each of the load checks refuses a
// damaged file rather than serving an empty or garbled registry.
func TestLoadCatalogRejectsDamage(t *testing.T) {
	src := NewMemDisk()
	cat, err := LoadCatalog(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Add(CatalogEntry{Name: "a", Spec: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	good, err := readFile(src, CatalogFileName)
	if err != nil {
		t.Fatal(err)
	}
	damage := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"truncated header", "truncated header", good[:11]},
		{"bad magic", "bad magic", damage(func(b []byte) []byte { b[0] ^= 0xff; return b })},
		{"length mismatch", "length", damage(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[8:], uint32(len(b)))
			return b
		})},
		{"truncated payload", "length", good[:len(good)-1]},
		{"CRC mismatch", "CRC mismatch", damage(func(b []byte) []byte { b[len(b)-2] ^= 0x01; return b })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewMemDisk()
			if err := WriteFileAtomic(d, CatalogFileName, tc.data); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadCatalog(d); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadCatalog = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}
