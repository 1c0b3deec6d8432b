package storage

import (
	"time"

	"panda/internal/clock"
	"panda/internal/vtime"
)

// SimDisk wraps an inner Disk (normally a MemDisk) and charges the
// calling node time per request according to an AIXModel. The wrapped
// disk supplies data correctness; SimDisk supplies timing. It belongs to
// exactly one I/O node, whose clock it advances synchronously — matching
// Panda servers, which issue blocking file system calls.
type SimDisk struct {
	inner Disk
	model AIXModel
	clk   clock.Clock
	cache *blockCache

	// media is the physical device: the arm's availability and head
	// position. Normally private to this SimDisk; ShareMediaWith
	// makes two SimDisks contend for one device, modelling two
	// applications whose I/O nodes share a physical node (the
	// paper's closing question about i/o node sharing).
	media *media

	stats *DiskStats
}

// media is one physical disk: a serially reusable arm plus its head
// position for seek accounting.
type media struct {
	arm      vtime.Port
	lastFile string
	lastOff  int64
	touched  bool
}

// DiskStats counts the traffic a SimDisk served.
type DiskStats struct {
	Reads, Writes, Seeks, CacheHits int64
	BytesRead, BytesWritten         int64
	Busy                            time.Duration
}

// NewSimDisk wraps inner with the given cost model, advancing clk on
// every request.
func NewSimDisk(inner Disk, model AIXModel, clk clock.Clock) *SimDisk {
	var cache *blockCache
	if model.CacheBytes > 0 {
		cache = newBlockCache(model.BlockSize, model.CacheBytes)
	}
	return &SimDisk{inner: inner, model: model, clk: clk, cache: cache, media: &media{}, stats: &DiskStats{}}
}

// Rebind returns a view of the same simulated disk driven by another
// clock — for a pipeline stage that runs as its own simulated process
// on the same I/O node. The view shares the device (arm, head, cache),
// the stored data, and the statistics; only the clock that gets charged
// differs. Requests from the original and the view still serialize on
// the one arm, so the sequential-access guarantee is unaffected.
func (d *SimDisk) Rebind(clk clock.Clock) Disk {
	cp := *d
	cp.clk = clk
	return &cp
}

// Rebinder is implemented by disks whose time accounting is bound to a
// specific clock. RebindClock uses it to retarget a disk at a pipeline
// stage's own clock; disks that measure real time need no rebinding.
type Rebinder interface {
	Rebind(clk clock.Clock) Disk
}

// RebindClock retargets d's time accounting at clk when d supports it,
// and returns d unchanged otherwise.
func RebindClock(d Disk, clk clock.Clock) Disk {
	if r, ok := d.(Rebinder); ok {
		return r.Rebind(clk)
	}
	return d
}

// ShareMediaWith makes d use the same physical device as o: their
// requests serialize on one arm and disturb each other's head
// position. Both disks must be driven by clocks of the same
// simulation.
func (d *SimDisk) ShareMediaWith(o *SimDisk) { d.media = o.media }

// Stats returns the traffic counters so far, aggregated across every
// Rebind view of this disk.
func (d *SimDisk) Stats() DiskStats { return *d.stats }

// seekCheck updates the device head position and reports whether this
// request pays a seek.
func (d *SimDisk) seekCheck(file string, off, n int64) bool {
	m := d.media
	seek := m.touched && (file != m.lastFile || off != m.lastOff)
	m.lastFile, m.lastOff, m.touched = file, off+n, true
	if seek {
		d.stats.Seeks++
	}
	return seek
}

// charge books the request on the device arm — waiting out any other
// tenant's in-flight request — and advances this node's clock to the
// completion time.
func (d *SimDisk) charge(cost time.Duration) {
	now := d.clk.Now()
	done := d.media.arm.Reserve(now, cost)
	d.stats.Busy += cost
	d.clk.Sleep(done - now)
}

// Create implements Disk.
func (d *SimDisk) Create(name string) (File, error) {
	f, err := d.inner.Create(name)
	if err != nil {
		return nil, err
	}
	d.cache.drop(name)
	return &simFile{disk: d, name: name, inner: f}, nil
}

// Open implements Disk.
func (d *SimDisk) Open(name string) (File, error) {
	f, err := d.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &simFile{disk: d, name: name, inner: f}, nil
}

// Remove implements Disk.
func (d *SimDisk) Remove(name string) error {
	d.cache.drop(name)
	return d.inner.Remove(name)
}

// Rename implements Disk. A rename is a metadata operation — the AIX
// model charges data movement only — so it costs no simulated time.
// Cached residency travels under the old name; dropping both names
// keeps the model conservative (the next reads hit the media).
func (d *SimDisk) Rename(oldName, newName string) error {
	d.cache.drop(oldName)
	d.cache.drop(newName)
	return d.inner.Rename(oldName, newName)
}

// List implements Disk; listing a directory charges no simulated time.
func (d *SimDisk) List() ([]string, error) { return d.inner.List() }

// FlushCache implements Disk: drops the modelled buffer cache, as the
// paper does before each read experiment.
func (d *SimDisk) FlushCache() {
	d.cache.flush()
	d.inner.FlushCache()
}

// simFile is an interposer: its ReadAt charges the AIX model's time, so
// it has no Unwrap — a file range sent from the host file underneath
// would skip the charge.
type simFile struct {
	disk  *SimDisk
	name  string
	inner File
}

func (f *simFile) ReadAt(p []byte, off int64) (int, error) {
	d := f.disk
	n := int64(len(p))
	cached := d.cache.contains(f.name, off, n)
	seek := false
	if cached {
		d.stats.CacheHits++
	} else {
		seek = d.seekCheck(f.name, off, n)
	}
	d.charge(d.model.ReadCost(len(p), cached, seek))
	d.cache.insert(f.name, off, n)
	d.stats.Reads++
	d.stats.BytesRead += n
	return f.inner.ReadAt(p, off)
}

func (f *simFile) WriteAt(p []byte, off int64) (int, error) {
	d := f.disk
	n := int64(len(p))
	seek := d.seekCheck(f.name, off, n)
	d.charge(d.model.WriteCost(len(p), seek))
	d.cache.insert(f.name, off, n)
	d.stats.Writes++
	d.stats.BytesWritten += n
	return f.inner.WriteAt(p, off)
}

// Sync implements File. The model charges writes synchronously (the
// measured AIX write peak the overheads are calibrated to already
// reflects fsync-per-operation, per the paper's methodology), so Sync
// itself is free.
func (f *simFile) Sync() error { return f.inner.Sync() }

func (f *simFile) Size() (int64, error) { return f.inner.Size() }

func (f *simFile) Close() error { return f.inner.Close() }
