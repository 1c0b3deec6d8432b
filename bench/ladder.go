package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"panda/internal/array"
	"panda/internal/bufpool"
	"panda/internal/mpi"
	"panda/internal/obs"
	"panda/internal/storage"
)

// The ladder: each layer measured alone through its exported functions,
// bottom up — pack kernel, buffer pool, span recorder, the three
// transports, the two disks, checksum, epoch commit, scrub. Read each
// rung against the slowest rung beneath it (README.md); a gap between
// adjacent rungs names the layer that owns it.

const ladderBytes = 16 * mib

// minOf returns the shortest of n timings of f.
func minOf(n int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		f()
		best = min(best, time.Since(start))
	}
	return best
}

func gbps(bytes int64, d time.Duration) float64 { return float64(bytes) / 1e9 / d.Seconds() }
func mbps(bytes int64, d time.Duration) float64 { return float64(bytes) / mib / d.Seconds() }

// mallocsDuring counts the heap objects f allocates.
func mallocsDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// packProbe times array.CopyRegion packing 16 MiB of float32 out of a
// 2-D array in contiguous runs of runBytes (0: the whole array is one
// run), the minimum of five.
func packProbe(runBytes int) (rate float64, allocsPerCall float64) {
	const elem = 4
	elems := ladderBytes / elem
	outer := array.Box([]int{elems})
	sect := outer
	if runBytes > 0 {
		run := runBytes / elem
		outer = array.Box([]int{elems / run, 2 * run})
		sect = array.NewRegion([]int{0, 0}, []int{elems / run, run})
	}
	src := make([]byte, outer.NumElems()*elem)
	dst := make([]byte, sect.NumElems()*elem)
	pack := func() { array.CopyRegion(dst, sect, src, outer, sect, elem) }
	pack()
	best := minOf(5, pack)
	const calls = 4
	allocs := mallocsDuring(func() {
		for i := 0; i < calls; i++ {
			pack()
		}
	})
	return gbps(ladderBytes, best), float64(allocs) / calls
}

// kernelProbes measures the leaves: pack kernel, buffer pool, recorder.
func kernelProbes(out map[string]float64) {
	out["array.pack_contig_GBps"], _ = packProbe(0)
	out["array.pack_run512_GBps"], _ = packProbe(512)
	out["array.pack_run16_GBps"], out["array.pack_allocs_per_call"] = packProbe(16)

	const loops = 100000
	d := minOf(3, func() {
		for i := 0; i < loops; i++ {
			bufpool.Put(bufpool.GetRaw(mib))
		}
	})
	out["bufpool.getput_ns"] = float64(d) / loops

	track := obs.NewRecorder(0).Track("probe")
	d = minOf(3, func() {
		for i := 0; i < loops; i++ {
			track.Span(obs.CatNet, "probe", i, 0, 1, 0)
		}
	})
	out["obs.span_ns"] = float64(d) / loops

	buf := make([]byte, ladderBytes)
	d = minOf(5, func() { storage.CRC32C(buf) })
	out["storage.crc32c_GBps"] = gbps(ladderBytes, d)
}

// Tags of the transport probes' two-rank protocol.
const (
	tagPing = iota + 1
	tagPong
	tagData
	tagAck
	tagStop
)

// transport opens a two-rank world of one of the three mpi transports.
type transport struct {
	name string
	open func() (a, b mpi.Comm, shut func(), err error)
}

var transports = []transport{
	{"inproc", func() (mpi.Comm, mpi.Comm, func(), error) {
		w := mpi.NewWorld(2)
		return w.Comm(0), w.Comm(1), func() {}, nil
	}},
	{"hub", func() (mpi.Comm, mpi.Comm, func(), error) {
		hub, err := mpi.ListenHub("127.0.0.1:0", 2)
		if err != nil {
			return nil, nil, nil, err
		}
		done := make(chan struct{})
		go func() {
			hub.Serve() //nolint:errcheck // a rank closing with unread frames ends it with a reset; the probe is over by then
			close(done)
		}()
		var c [2]mpi.Comm
		for r := range c {
			if c[r], err = mpi.DialComm(hub.Addr(), r, 2); err != nil {
				hub.Close()
				return nil, nil, nil, err
			}
		}
		return c[0], c[1], func() {
			mpi.CloseComm(c[0]) //nolint:errcheck // teardown
			mpi.CloseComm(c[1]) //nolint:errcheck // teardown
			hub.Close()
			<-done
		}, nil
	}},
	{"mesh", func() (mpi.Comm, mpi.Comm, func(), error) {
		reg, err := mpi.ListenRegistry("127.0.0.1:0", 2)
		if err != nil {
			return nil, nil, nil, err
		}
		go reg.Serve() //nolint:errcheck // exits once both ranks have the table; a failure shows as a JoinMesh error
		var c [2]mpi.Comm
		var errs [2]error
		var wg sync.WaitGroup
		for r := range c {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c[r], errs[r] = mpi.JoinMesh(reg.Addr(), r, 2)
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, nil, nil, err
			}
		}
		return c[0], c[1], func() {
			mpi.CloseMesh(c[0]) //nolint:errcheck // teardown
			mpi.CloseMesh(c[1]) //nolint:errcheck // teardown
		}, nil
	}},
}

// echo is rank 1 of a transport probe: it answers pings, acknowledges
// every 16th data message, and recycles what it receives as Panda's
// frame consumers do.
func echo(b mpi.Comm, done chan<- struct{}) {
	defer close(done)
	got := 0
	for {
		m := b.Recv(0, mpi.AnyTag)
		switch m.Tag {
		case tagPing:
			b.Send(0, tagPong, m.Data)
		case tagData:
			if got++; got == ladderBytes/mib {
				got = 0
				b.Send(0, tagAck, []byte{1})
			}
		case tagStop:
			return
		}
		bufpool.Put(m.Data)
	}
}

// transportProbes measures one transport: a 64-byte ping-pong, and a
// 16 MiB stream in 1 MiB sends timed against the reference write of
// 16 MiB run right after it.
func transportProbes(t transport, ref *refPath, out map[string]float64) error {
	a, b, shut, err := t.open()
	if err != nil {
		return fmt.Errorf("mpi %s: %w", t.name, err)
	}
	done := make(chan struct{})
	go echo(b, done)
	defer func() {
		a.Send(1, tagStop, nil)
		<-done
		shut()
	}()

	ping := make([]byte, 64)
	roundTrips := func(n int) {
		for i := 0; i < n; i++ {
			a.Send(1, tagPing, ping)
			bufpool.Put(a.Recv(1, tagPong).Data)
		}
	}
	roundTrips(200)
	const batch = 200
	var rtts []float64
	for i := 0; i < 10; i++ {
		start := time.Now()
		roundTrips(batch)
		rtts = append(rtts, float64(time.Since(start))/1e3/batch)
	}
	out["mpi."+t.name+".rtt_us"] = median(rtts)

	chunk := make([]byte, mib)
	stream := func() {
		for i := 0; i < ladderBytes/mib; i++ {
			a.Send(1, tagData, chunk)
		}
		bufpool.Put(a.Recv(1, tagAck).Data)
	}
	stream()
	var streams, refs []float64
	for i := 0; i < 8; i++ {
		start := time.Now()
		stream()
		streams = append(streams, float64(time.Since(start)))
		d, err := ref.write(ladderBytes)
		if err != nil {
			return err
		}
		refs = append(refs, float64(d))
	}
	out["mpi."+t.name+".stream_x_ref"] = ratioMedian(refs, streams)

	const reps = 4
	before, err := readProcIO()
	if err != nil {
		return err
	}
	allocs := mallocsDuring(func() {
		for i := 0; i < reps; i++ {
			stream()
		}
	})
	after, err := readProcIO()
	if err != nil {
		return err
	}
	out["mpi."+t.name+".allocs_per_msg"] = float64(allocs) / (reps * (ladderBytes/mib + 1))
	out["mpi."+t.name+".io_bytes_per_byte"] = float64(after.sub(before).bytes()) / (reps * ladderBytes)
	return nil
}

// diskProbes measures 64 sequential 1 MiB writes and reads on one disk,
// the median of three.
func diskProbes(d storage.Disk, name string, sync bool, out map[string]float64) error {
	const n = 64
	buf := make([]byte, mib)
	var writes, syncs, reads []float64
	for rep := 0; rep < 3; rep++ {
		f, err := d.Create("probe")
		if err != nil {
			return err
		}
		start := time.Now()
		for i := int64(0); i < n; i++ {
			if _, err := f.WriteAt(buf, i*mib); err != nil {
				return err
			}
		}
		writes = append(writes, mbps(n*mib, time.Since(start)))
		if err := f.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, mbps(n*mib, time.Since(start)))
		start = time.Now()
		for i := int64(0); i < n; i++ {
			if _, err := f.ReadAt(buf, i*mib); err != nil {
				return err
			}
		}
		reads = append(reads, mbps(n*mib, time.Since(start)))
		if err := f.Close(); err != nil {
			return err
		}
	}
	out["storage."+name+".write_MBps"] = median(writes)
	if sync {
		out["storage."+name+".write_sync_MBps"] = median(syncs)
	}
	out["storage."+name+".read_MBps"] = median(reads)
	return d.Remove("probe")
}

// commitProbes measures what making one 1 MiB file durable costs past
// writing it — manifest, decision record, epoch promotion — and a scrub
// of the files that leaves.
func commitProbes(d storage.Disk, out map[string]float64) error {
	const base, key = "probe.0", "probe"
	data := make([]byte, mib)
	crc := storage.CRC32C(data)
	var commits []float64
	for epoch := uint64(1); epoch <= 20; epoch++ {
		f, err := d.Create(storage.EpochName(base, epoch))
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		m := &storage.Manifest{
			Version: storage.ManifestVersion, Array: key, Epoch: epoch, TotalBytes: mib,
			Chunks: []storage.ManifestChunk{{Bytes: mib}},
			Subs:   []storage.ManifestSub{{Bytes: mib, CRC: crc}},
		}
		start := time.Now()
		if err := storage.WriteManifest(d, storage.EpochManifestName(base, epoch), m); err != nil {
			return err
		}
		if err := storage.WriteDecision(d, key, epoch); err != nil {
			return err
		}
		if err := storage.CommitEpoch(d, base, epoch); err != nil {
			return err
		}
		commits = append(commits, float64(time.Since(start))/1e3)
	}
	out["storage.commit_epoch_us"] = median(commits)

	names, err := d.List()
	if err != nil {
		return err
	}
	var rep *storage.ScrubReport
	best := minOf(3, func() { rep, err = storage.Scrub([]storage.Disk{d}, false) })
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("scrub of the commit probe's files: %+v", rep.Issues)
	}
	out["storage.scrub_us_per_file"] = float64(best) / 1e3 / float64(len(names))
	return nil
}

// ladder runs every single-layer probe with its files under dir.
func ladder(dir string, out map[string]float64) error {
	kernelProbes(out)
	ref, err := newRefPath(dir, ladderBytes)
	if err != nil {
		return err
	}
	defer ref.Close()
	for _, t := range transports {
		if err := transportProbes(t, ref, out); err != nil {
			return err
		}
	}
	osd, err := storage.NewOSDisk(dir + "/ladder")
	if err != nil {
		return err
	}
	if err := diskProbes(osd, "osdisk", true, out); err != nil {
		return err
	}
	if err := diskProbes(storage.NewMemDisk(), "memdisk", false, out); err != nil {
		return err
	}
	return commitProbes(osd, out)
}
