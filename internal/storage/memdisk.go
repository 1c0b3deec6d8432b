package storage

import (
	"fmt"
	"io/fs"
	"sort"
	"sync"
)

// MemDisk is an in-memory Disk. With Discard set, file contents are not
// retained — only sizes — which lets performance experiments move
// hundreds of megabytes without holding them; reads then return zeros.
//
// MemDisk is safe for concurrent use by multiple goroutines (the
// real-time runtime runs servers concurrently even though each disk
// belongs to one server).
type MemDisk struct {
	// Discard drops written data, keeping sizes only.
	Discard bool

	mu    sync.Mutex
	files map[string]*memFile
}

// NewMemDisk returns an empty in-memory disk that retains data.
func NewMemDisk() *MemDisk { return &MemDisk{} }

// NewNullDisk returns an in-memory disk that discards all data: the
// paper's "infinitely fast disk".
func NewNullDisk() *MemDisk { return &MemDisk{Discard: true} }

type memFile struct {
	disk *MemDisk
	name string
	mu   sync.Mutex
	data []byte
	size int64
}

func (d *MemDisk) getOrCreate(name string, truncate bool) *memFile {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.files == nil {
		d.files = make(map[string]*memFile)
	}
	f, ok := d.files[name]
	if !ok {
		f = &memFile{disk: d, name: name}
		d.files[name] = f
	} else if truncate {
		f.mu.Lock()
		f.data = nil
		f.size = 0
		f.mu.Unlock()
	}
	return f
}

// Create implements Disk.
func (d *MemDisk) Create(name string) (File, error) {
	return d.getOrCreate(name, true), nil
}

// Open implements Disk.
func (d *MemDisk) Open(name string) (File, error) {
	d.mu.Lock()
	f, ok := d.files[name]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("memdisk: open %s: %w", name, fs.ErrNotExist)
	}
	return f, nil
}

// Remove implements Disk.
func (d *MemDisk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; !ok {
		return fmt.Errorf("memdisk: remove %s: %w", name, fs.ErrNotExist)
	}
	delete(d.files, name)
	return nil
}

// Rename implements Disk, replacing any existing destination.
func (d *MemDisk) Rename(oldName, newName string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[oldName]
	if !ok {
		return fmt.Errorf("memdisk: rename %s: %w", oldName, fs.ErrNotExist)
	}
	delete(d.files, oldName)
	f.name = newName
	d.files[newName] = f
	return nil
}

// List implements Disk.
func (d *MemDisk) List() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for name := range d.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// FlushCache implements Disk; MemDisk has no cache.
func (d *MemDisk) FlushCache() {}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("memdisk: negative offset %d", off)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	end := off + int64(len(p))
	if end > f.size {
		f.size = end
	}
	if !f.disk.Discard {
		if grow := end - int64(len(f.data)); grow > 0 {
			// append grows geometrically, so a file written front to back
			// is copied O(1) times per byte, not once per extending write.
			f.data = append(f.data, make([]byte, grow)...)
		}
		copy(f.data[off:end], p)
	}
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("memdisk: negative offset %d", off)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= f.size {
		return 0, fmt.Errorf("memdisk: read %s at %d beyond size %d", f.name, off, f.size)
	}
	n := len(p)
	short := false
	if off+int64(n) > f.size {
		n = int(f.size - off)
		short = true
	}
	if f.disk.Discard {
		for i := 0; i < n; i++ {
			p[i] = 0
		}
	} else {
		copy(p[:n], f.data[off:off+int64(n)])
	}
	if short {
		return n, fmt.Errorf("memdisk: short read of %s: %d of %d bytes", f.name, n, len(p))
	}
	return n, nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Size() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size, nil
}

func (f *memFile) Close() error { return nil }
