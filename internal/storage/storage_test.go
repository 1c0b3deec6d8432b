package storage

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"

	"panda/internal/clock"
)

// diskContract exercises the behaviour every Disk must share.
func diskContract(t *testing.T, d Disk) {
	t.Helper()

	// Create, write, read back (MemDisk/OSDisk retain data).
	f, err := d.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello world"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("WORLD"), 6); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	sz, err := f.Size()
	if err != nil || sz != 11 {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 6); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "WORLD" {
		t.Fatalf("read %q", buf)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen sees the data.
	f2, err := d.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	all := make([]byte, 11)
	if _, err := f2.ReadAt(all, 0); err != nil {
		t.Fatal(err)
	}
	if string(all) != "hello WORLD" {
		t.Fatalf("reopened read %q", all)
	}
	f2.Close()

	// Create truncates.
	f3, err := d.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if sz, _ := f3.Size(); sz != 0 {
		t.Fatalf("Create did not truncate: size %d", sz)
	}
	f3.Close()

	// Open of a missing file fails.
	if _, err := d.Open("missing"); err == nil {
		t.Fatal("Open(missing) succeeded")
	}

	// Remove works and makes Open fail.
	if err := d.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Open("a"); err == nil {
		t.Fatal("Open after Remove succeeded")
	}
	if err := d.Remove("a"); err == nil {
		t.Fatal("double Remove succeeded")
	}
}

func TestMemDiskContract(t *testing.T) { diskContract(t, NewMemDisk()) }

func TestOSDiskContract(t *testing.T) {
	d, err := NewOSDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	diskContract(t, d)
}

func TestSimDiskContract(t *testing.T) {
	clk := &fakeClock{}
	diskContract(t, NewSimDisk(NewMemDisk(), SP2AIX(), clk))
}

func TestMemDiskSparseWriteZeroFills(t *testing.T) {
	d := NewMemDisk()
	f, _ := d.Create("s")
	if _, err := f.WriteAt([]byte{0xFF}, 100); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 101)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if buf[i] != 0 {
			t.Fatalf("hole not zero at %d", i)
		}
	}
	if buf[100] != 0xFF {
		t.Fatal("written byte lost")
	}
}

func TestMemDiskShortReadReportsError(t *testing.T) {
	d := NewMemDisk()
	f, _ := d.Create("s")
	f.WriteAt([]byte("abc"), 0)
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 1)
	if n != 2 || err == nil {
		t.Fatalf("short read: n=%d err=%v", n, err)
	}
}

func TestNullDiskDiscardsButTracksSize(t *testing.T) {
	d := NewNullDisk()
	f, _ := d.Create("x")
	f.WriteAt(bytes.Repeat([]byte{7}, 1024), 0)
	if sz, _ := f.Size(); sz != 1024 {
		t.Fatalf("size = %d", sz)
	}
	buf := make([]byte, 1024)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("null disk returned non-zero data")
		}
	}
}

func TestMemDiskRoundTripProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		d := NewMemDisk()
		file, _ := d.Create("p")
		var ref []byte
		off := int64(0)
		for _, c := range chunks {
			if len(c) == 0 {
				continue
			}
			file.WriteAt(c, off)
			ref = append(ref, c...)
			off += int64(len(c))
		}
		if len(ref) == 0 {
			return true
		}
		got := make([]byte, len(ref))
		if _, err := file.ReadAt(got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// fakeClock records sleeps without waiting.
type fakeClock struct{ elapsed time.Duration }

func (c *fakeClock) Now() time.Duration           { return c.elapsed }
func (c *fakeClock) Sleep(d time.Duration)        { c.elapsed += d }
func (c *fakeClock) Go(string, func(clock.Clock)) { panic("fakeClock hosts no activities") }

func almostEqual(a, b, tolFrac float64) bool {
	return math.Abs(a-b) <= tolFrac*math.Abs(b)
}

func TestAIXCalibrationMatchesTable1(t *testing.T) {
	m := SP2AIX()
	// A 1 MB sequential uncached request must land on the measured
	// peaks from Table 1.
	if got := m.ReadThroughput(1 << 20); !almostEqual(got, AIXPeakRead, 0.001) {
		t.Fatalf("1MB read throughput = %.0f, want %.0f", got, AIXPeakRead)
	}
	if got := m.WriteThroughput(1 << 20); !almostEqual(got, AIXPeakWrite, 0.001) {
		t.Fatalf("1MB write throughput = %.0f, want %.0f", got, AIXPeakWrite)
	}
}

func TestAIXThroughputDeclinesForSmallRequests(t *testing.T) {
	m := SP2AIX()
	sizes := []int{4 << 10, 64 << 10, 256 << 10, 1 << 20}
	for i := 1; i < len(sizes); i++ {
		if m.WriteThroughput(sizes[i-1]) >= m.WriteThroughput(sizes[i]) {
			t.Fatalf("write throughput not increasing in request size at %d", sizes[i])
		}
		if m.ReadThroughput(sizes[i-1]) >= m.ReadThroughput(sizes[i]) {
			t.Fatalf("read throughput not increasing in request size at %d", sizes[i])
		}
	}
	// Throughput never exceeds the media rate.
	if m.ReadThroughput(64<<20) > AIXMediaRate {
		t.Fatal("modelled throughput exceeds media rate")
	}
}

func TestSimDiskChargesSequentialWrites(t *testing.T) {
	clk := &fakeClock{}
	d := NewSimDisk(NewMemDisk(), SP2AIX(), clk)
	f, _ := d.Create("w")
	const mb = 1 << 20
	buf := make([]byte, mb)
	for i := 0; i < 8; i++ {
		f.WriteAt(buf, int64(i*mb))
	}
	thr := float64(8*mb) / clk.elapsed.Seconds()
	if !almostEqual(thr, AIXPeakWrite, 0.01) {
		t.Fatalf("sequential write throughput %.0f, want ~%.0f", thr, AIXPeakWrite)
	}
	st := d.Stats()
	if st.Writes != 8 || st.BytesWritten != 8*mb || st.Seeks != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSimDiskSeekPenalty(t *testing.T) {
	m := SP2AIX()
	seq := &fakeClock{}
	d1 := NewSimDisk(NewMemDisk(), m, seq)
	f1, _ := d1.Create("w")
	buf := make([]byte, 64<<10)
	for i := 0; i < 16; i++ {
		f1.WriteAt(buf, int64(i*len(buf)))
	}

	rnd := &fakeClock{}
	d2 := NewSimDisk(NewMemDisk(), m, rnd)
	f2, _ := d2.Create("w")
	for i := 15; i >= 0; i-- { // reverse order: every request seeks
		f2.WriteAt(buf, int64(i*len(buf)))
	}
	if rnd.elapsed <= seq.elapsed {
		t.Fatalf("seeky writes (%v) not slower than sequential (%v)", rnd.elapsed, seq.elapsed)
	}
	if d2.Stats().Seeks != 15 {
		t.Fatalf("seeks = %d, want 15", d2.Stats().Seeks)
	}
}

func TestSimDiskCacheHitsAreFast(t *testing.T) {
	clk := &fakeClock{}
	d := NewSimDisk(NewMemDisk(), SP2AIX(), clk)
	f, _ := d.Create("c")
	buf := make([]byte, 1<<20)
	f.WriteAt(buf, 0) // populates cache

	before := clk.elapsed
	f.ReadAt(buf, 0) // cache hit
	hit := clk.elapsed - before

	d.FlushCache()
	before = clk.elapsed
	f.ReadAt(buf, 0) // media read
	miss := clk.elapsed - before

	if hit*10 > miss {
		t.Fatalf("cache hit (%v) not much faster than miss (%v)", hit, miss)
	}
	if d.Stats().CacheHits != 1 {
		t.Fatalf("cache hits = %d", d.Stats().CacheHits)
	}
}

func TestSimDiskFlushForcesMediaReads(t *testing.T) {
	clk := &fakeClock{}
	m := SP2AIX()
	d := NewSimDisk(NewMemDisk(), m, clk)
	f, _ := d.Create("c")
	buf := make([]byte, 1<<20)
	f.WriteAt(buf, 0)
	d.FlushCache()
	before := clk.elapsed
	f.ReadAt(buf, 0)
	got := clk.elapsed - before
	want := m.ReadCost(1<<20, false, true) // head moved? write ended at 1MB, read starts at 0 → seek
	if got != want {
		t.Fatalf("flushed read cost %v, want %v", got, want)
	}
}

func TestSimDiskCacheEviction(t *testing.T) {
	m := SP2AIX()
	m.CacheBytes = 1 << 20 // 1 MB cache
	clk := &fakeClock{}
	d := NewSimDisk(NewMemDisk(), m, clk)
	f, _ := d.Create("e")
	buf := make([]byte, 1<<20)
	f.WriteAt(buf, 0)     // fills cache
	f.WriteAt(buf, 1<<20) // evicts the first MB
	before := clk.elapsed
	f.ReadAt(buf, 0) // must be a miss
	if clk.elapsed-before < m.ReadOverhead {
		t.Fatal("expected media read after eviction")
	}
	if d.Stats().CacheHits != 0 {
		t.Fatalf("unexpected cache hit after eviction")
	}
}

func TestSimDiskCreateDropsCache(t *testing.T) {
	clk := &fakeClock{}
	d := NewSimDisk(NewMemDisk(), SP2AIX(), clk)
	f, _ := d.Create("x")
	buf := make([]byte, 64<<10)
	f.WriteAt(buf, 0)
	f.Close()
	f2, _ := d.Create("x") // truncate: stale cache must go
	f2.WriteAt(buf, 0)
	f2.Close()
	if d.Stats().CacheHits != 0 {
		t.Fatal("cache survived Create truncation")
	}
}

func TestOSDiskFilesAppearUnderRoot(t *testing.T) {
	dir := t.TempDir()
	d, err := NewOSDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := d.Create("arr.0")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("data"), 0)
	f.Close()
	f2, err := d.Open("arr.0")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	b := make([]byte, 4)
	f2.ReadAt(b, 0)
	if string(b) != "data" {
		t.Fatalf("got %q", b)
	}
}

func TestAIXThroughputPlateausAtMeasuredPeak(t *testing.T) {
	m := SP2AIX()
	// The paper reports 2.85/2.23 MB/s as *peaks*; requests larger
	// than 1 MB must not beat them.
	for _, n := range []int{1 << 20, 4 << 20, 32 << 20} {
		if got := m.ReadThroughput(n); got > AIXPeakRead*1.001 {
			t.Fatalf("read throughput %.0f at %d bytes exceeds measured peak", got, n)
		}
		if got := m.WriteThroughput(n); got > AIXPeakWrite*1.001 {
			t.Fatalf("write throughput %.0f at %d bytes exceeds measured peak", got, n)
		}
	}
	// And exactly the peak at and beyond the calibration size.
	if got := m.WriteThroughput(8 << 20); !almostEqual(got, AIXPeakWrite, 0.001) {
		t.Fatalf("8MB write throughput %.0f, want plateau %.0f", got, AIXPeakWrite)
	}
}

func TestSharedMediaSerializesTenants(t *testing.T) {
	// Two disks sharing one physical device: requests issued at the
	// same virtual instant must serialize on the arm, and alternating
	// tenants must pay cross-tenant seeks.
	m := SP2AIX()
	clkA := &fakeClock{}
	clkB := &fakeClock{}
	a := NewSimDisk(NewMemDisk(), m, clkA)
	b := NewSimDisk(NewMemDisk(), m, clkB)
	b.ShareMediaWith(a)

	fa, _ := a.Create("a")
	fb, _ := b.Create("b")
	buf := make([]byte, 1<<20)

	// Interleave: A writes, then B (B's clock still at 0, but the arm
	// is busy until A's request completes, so B waits).
	fa.WriteAt(buf, 0)
	fb.WriteAt(buf, 0)
	costA := m.WriteCost(1<<20, false)
	if clkA.elapsed != costA {
		t.Fatalf("tenant A elapsed %v, want %v", clkA.elapsed, costA)
	}
	// B paid: wait for A's slot + its own cost + a seek (different file).
	costB := m.WriteCost(1<<20, true)
	if clkB.elapsed != costA+costB {
		t.Fatalf("tenant B elapsed %v, want %v (arm wait + seek)", clkB.elapsed, costA+costB)
	}
	if b.Stats().Seeks != 1 {
		t.Fatalf("tenant B seeks = %d, want 1 (cross-tenant head movement)", b.Stats().Seeks)
	}
}

func TestBlockCacheDropSingleFile(t *testing.T) {
	c := newBlockCache(4096, 1<<20)
	c.insert("a", 0, 8192)
	c.insert("b", 0, 4096)
	if !c.contains("a", 0, 8192) || !c.contains("b", 0, 4096) {
		t.Fatal("inserted ranges not resident")
	}
	c.drop("a")
	if c.contains("a", 0, 4096) {
		t.Fatal("dropped file still resident")
	}
	if !c.contains("b", 0, 4096) {
		t.Fatal("drop removed the wrong file")
	}
	c.flush()
	if c.contains("b", 0, 4096) {
		t.Fatal("flush left residue")
	}
}

func TestFaultDiskThresholds(t *testing.T) {
	fd := &FaultDisk{Inner: NewMemDisk(), FailWritesAfter: 2, FailReadsAfter: 1}
	f, err := fd.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{1}, 0); err != nil {
		t.Fatal("write 1 failed early")
	}
	if _, err := f.WriteAt([]byte{2}, 1); err != nil {
		t.Fatal("write 2 failed early")
	}
	if _, err := f.WriteAt([]byte{3}, 2); err == nil {
		t.Fatal("write 3 should fail")
	}
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal("read 1 failed early")
	}
	if _, err := f.ReadAt(buf, 0); err == nil {
		t.Fatal("read 2 should fail")
	}
	fd.Heal()
	if _, err := f.WriteAt([]byte{4}, 3); err != nil {
		t.Fatal("healed write failed")
	}
}
