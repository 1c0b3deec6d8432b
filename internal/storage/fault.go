package storage

import (
	"errors"
	"sync"
)

// ErrInjected is the error FaultDisk injects.
var ErrInjected = errors.New("storage: injected fault")

// FaultDisk wraps a Disk and injects failures for testing error paths:
// after FailWritesAfter successful writes every further write fails,
// and likewise for reads. Zero thresholds disable that class of fault.
// Opens fail once FailOpens is set. FaultDisk is safe for concurrent
// use to the extent the wrapped disk is.
type FaultDisk struct {
	Inner Disk
	// FailWritesAfter > 0 fails every write after that many succeed.
	FailWritesAfter int64
	// FailReadsAfter > 0 fails every read after that many succeed.
	FailReadsAfter int64
	// FailOpens makes Open/Create fail outright.
	FailOpens bool

	mu       sync.Mutex
	writes   int64
	reads    int64
	tornSync bool
	torn     int64
}

// Heal atomically disables all injected faults.
func (d *FaultDisk) Heal() {
	d.mu.Lock()
	d.FailWritesAfter = 0
	d.FailReadsAfter = 0
	d.FailOpens = false
	d.tornSync = false
	d.mu.Unlock()
}

// ArmTornSync makes the next Sync on any file of this disk lie like a
// powered-off drive: it reports success but the tail half of that
// file's most recent WriteAt never reaches the media (it is overwritten
// with zeros). One Sync consumes the arming. This simulates a real
// power cut for crash-consistency tests — data silently lost after a
// successful flush — rather than a clean error.
func (d *FaultDisk) ArmTornSync() {
	d.mu.Lock()
	d.tornSync = true
	d.mu.Unlock()
}

// TornSyncs reports how many torn syncs this disk has injected.
func (d *FaultDisk) TornSyncs() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.torn
}

// Create implements Disk.
func (d *FaultDisk) Create(name string) (File, error) {
	if d.failOpens() {
		return nil, ErrInjected
	}
	f, err := d.Inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{disk: d, inner: f}, nil
}

func (d *FaultDisk) failOpens() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.FailOpens
}

// Open implements Disk.
func (d *FaultDisk) Open(name string) (File, error) {
	if d.failOpens() {
		return nil, ErrInjected
	}
	f, err := d.Inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{disk: d, inner: f}, nil
}

// Remove implements Disk.
func (d *FaultDisk) Remove(name string) error { return d.Inner.Remove(name) }

// Rename implements Disk.
func (d *FaultDisk) Rename(oldName, newName string) error { return d.Inner.Rename(oldName, newName) }

// List implements Disk.
func (d *FaultDisk) List() ([]string, error) { return d.Inner.List() }

// FlushCache implements Disk.
func (d *FaultDisk) FlushCache() { d.Inner.FlushCache() }

// faultFile is an interposer: every write must meet the plan, so it has
// no Unwrap and HostFile answers nil for it.
type faultFile struct {
	disk  *FaultDisk
	inner File

	mu      sync.Mutex
	lastOff int64
	lastLen int
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	d := f.disk
	d.mu.Lock()
	d.writes++
	fail := d.FailWritesAfter > 0 && d.writes > d.FailWritesAfter
	d.mu.Unlock()
	if fail {
		return 0, ErrInjected
	}
	f.mu.Lock()
	f.lastOff, f.lastLen = off, len(p)
	f.mu.Unlock()
	return f.inner.WriteAt(p, off)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	d := f.disk
	d.mu.Lock()
	d.reads++
	fail := d.FailReadsAfter > 0 && d.reads > d.FailReadsAfter
	d.mu.Unlock()
	if fail {
		return 0, ErrInjected
	}
	return f.inner.ReadAt(p, off)
}

func (f *faultFile) Sync() error {
	d := f.disk
	d.mu.Lock()
	tear := d.tornSync
	if tear {
		d.tornSync = false
		d.torn++
	}
	d.mu.Unlock()
	if tear {
		f.mu.Lock()
		off, n := f.lastOff, f.lastLen
		f.mu.Unlock()
		if n > 0 {
			// The tail half of the last write never hit the media.
			lost := n - n/2
			if _, err := f.inner.WriteAt(make([]byte, lost), off+int64(n/2)); err != nil {
				return nil // best effort: the lie stands even if the tear fails
			}
		}
	}
	return f.inner.Sync()
}
func (f *faultFile) Size() (int64, error) { return f.inner.Size() }
func (f *faultFile) Close() error         { return f.inner.Close() }
