package core

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panda/internal/array"
	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/obs"
)

// The write direction of in-process placement: a server offers each pull
// to the client's posted write (postedOps) and, when the table names the
// piece's window in the application's chunk, copies the piece straight
// out of it into its sub-chunk — borrows it — and sends neither the pull
// nor the reply, under the same table and fence as a placed read.

// standInPull is a server's pull for region reg of array 0, as it is
// offered to a client's posted write.
func standInPull(reg array.Region) []byte { return encodeSubReq(subReq{Region: reg}) }

// TestInprocWritesBorrowInPlace: over the in-process world both
// reorganizing directions of packOnceSpecs, bench/'s inproc_reorg
// geometry (16-byte runs) and a natural write read back bit-exact. Under
// any schedule every byte written leaves its client once, borrowed by a
// server (the servers' zero_copy_bytes) or framed by the client (the
// clients' contig_bytes plus reorg_bytes), and a piece strided in its
// client's chunk is never borrowed. When every client posts its write
// before the master client's request starts the servers, every piece
// contiguous in its client's chunk is borrowed.
func TestInprocWritesBorrowInPlace(t *testing.T) {
	shape := []int{32, 64, 8}
	cols := array.MustSchema(shape, []array.Dist{array.Star, array.Star, array.Block}, []int{2})
	rows := array.MustSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{2})
	pack := packOnceSpecs()
	for _, tc := range []struct {
		name     string
		spec     ArraySpec
		borrowed bool // every piece lies contiguous in its client's chunk
	}{
		{"gather: *,*,BLOCK memory over BLOCK,*,* disk", pack[0], true},
		{"serve: BLOCK,*,* memory over *,*,BLOCK disk", pack[1], false},
		{"inproc_reorg geometry", ArraySpec{Name: "reorg", ElemSize: 4, Mem: cols, Disk: rows}, true},
		{"natural", ArraySpec{Name: "nat", ElemSize: 4, Mem: rows, Disk: rows}, true},
	} {
		for _, postFirst := range []bool{false, true} {
			name := tc.name
			if postFirst {
				name += ", all posted first"
			}
			t.Run(name, func(t *testing.T) {
				reg := obs.NewRegistry()
				cfg := Config{NumClients: 2, NumServers: 2, SubchunkBytes: 4 << 10, OpTimeout: 10 * time.Second, Metrics: reg}
				specs := []ArraySpec{tc.spec}
				total := tc.spec.Disk.TotalBytes(tc.spec.ElemSize)
				var framed, placed atomic.Int64
				posted := make(chan struct{}, cfg.NumClients)
				err := RunReal(cfg, memDisks(cfg.NumServers), func(cl *Client) error {
					if postFirst && cl.IsMaster() {
						for i := 1; i < cfg.NumClients; i++ {
							<-posted // the other clients' writes are posted
						}
					}
					h, err := cl.SubmitWrite("", "", specs, makeBufs(cl, specs, true))
					if err != nil {
						return err
					}
					if !cl.IsMaster() {
						posted <- struct{}{}
					}
					if err := h.Await(); err != nil {
						return err
					}
					st := cl.Stats()
					framed.Add(st.ContigBytes + st.ReorgBytes)
					got := makeBufs(cl, specs, false)
					if err := cl.ReadArrays("", specs, got); err != nil {
						return err
					}
					placed.Add(cl.Stats().ZeroCopyBytes)
					return checkBufs(cl, specs, got)
				})
				if err != nil {
					t.Fatal(err)
				}
				borrowed := reg.Counter("zero_copy_bytes").Value() - placed.Load()
				if borrowed+framed.Load() != total {
					t.Errorf("%d bytes borrowed + %d framed, want the %d bytes written", borrowed, framed.Load(), total)
				}
				want := int64(0)
				if tc.borrowed {
					want = total
				}
				if (postFirst || !tc.borrowed) && borrowed != want {
					t.Errorf("%d of %d bytes written were borrowed, want %d", borrowed, total, want)
				}
			})
		}
	}
}

// TestInprocConcurrentBorrows: two servers hold borrows of one posted
// write at the same time — both reserved before either releases — and
// each copies out exactly its half of the client's chunk; the write then
// completes. Under -race the detector sees the table's and the array's
// accesses.
func TestInprocConcurrentBorrows(t *testing.T) {
	cfg := Config{NumClients: 1, NumServers: 2, SubchunkBytes: 64 << 10, OpTimeout: 10 * time.Second}
	s, cl := newInprocStandIn(t, cfg)
	defer cl.Shutdown()
	const size, piece = 256 << 10, 16 << 10
	spec := mustSpec1D(t, "both", size, 1, 2)
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i*31 + i>>10)
	}
	want := append([]byte(nil), buf...)
	errc := make(chan error, 1)
	go func() { errc <- cl.WriteArrays("", []ArraySpec{spec}, [][]byte{buf}) }()
	seq := <-s.requests

	got := make([]byte, size)
	held := newBarrier(2) // both borrows in progress before either ends
	var wg sync.WaitGroup
	for i := range s.servers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pc := mpi.PlaceRoute(s.servers[i])
			for off := i * size / 2; off < (i+1)*size/2; off += piece {
				hdr := standInPull(array.Region{Lo: []int{off / 4}, Hi: []int{(off + piece) / 4}})
				r := pc.Reserve(0, tagToClient(seq), hdr, piece)
				bufpool.Put(hdr)
				held()
				if r.Dst == nil {
					t.Errorf("server %d: piece at %d not borrowed", i, off)
					continue
				}
				copy(got[off:], r.Dst)
				pc.Release(r)
			}
		}(i)
	}
	wg.Wait()
	s.complete(seq, nil)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("the borrowed windows do not hold the client's chunk")
	}
}

// TestInprocFailedWriteOutlastsItsBorrows is the fence for writes: a
// write that fails typed — aborted by its master, or out of OpTimeout —
// while a server holds a borrow of its array does not return until that
// borrow ends, and no borrow starts after it returned: the application
// may reuse the array at once. Under -race the detector also sees any
// late read.
func TestInprocFailedWriteOutlastsItsBorrows(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(s *inprocStandIn, seq int)
		want error
	}{
		{"abort", func(s *inprocStandIn, seq int) { s.complete(seq, ErrCorrupt) }, ErrCorrupt},
		{"OpTimeout", func(*inprocStandIn, int) {}, ErrTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{NumClients: 1, NumServers: 2, SubchunkBytes: 64 << 10, OpTimeout: 300 * time.Millisecond}
			s, cl := newInprocStandIn(t, cfg)
			defer cl.Shutdown()
			const size = 128 << 10
			spec := mustSpec1D(t, "fence", size, 1, 2)
			buf := bytes.Repeat([]byte{0x5A}, size)
			done := make(chan error, 1)
			go func() { done <- cl.WriteArrays("", []ArraySpec{spec}, [][]byte{buf}) }()
			seq := <-s.requests

			pc := mpi.PlaceRoute(s.servers[1])
			half := array.Region{Lo: []int{0}, Hi: []int{size / 8}}
			hdr := standInPull(half)
			r := pc.Reserve(0, tagToClient(seq), hdr, size/2)
			bufpool.Put(hdr)
			if r.Dst == nil {
				t.Fatal("the first piece was not borrowed")
			}
			tc.fail(s, seq)
			select {
			case err := <-done:
				t.Fatalf("the write returned (%v) while a borrow of its array was in progress", err)
			case <-time.After(cfg.OpTimeout + 200*time.Millisecond):
			}
			if !bytes.Equal(r.Dst, buf[:size/2]) {
				t.Error("the borrowed window does not hold the array's bytes")
			}
			pc.Release(r)
			if err := <-done; !errors.Is(err, tc.want) {
				t.Fatalf("write: %v, want %v", err, tc.want)
			}
			for i := range buf {
				buf[i] = 0xC3 // the array is the application's again
			}
			rest := array.Region{Lo: []int{size / 8}, Hi: []int{size / 4}}
			hdr = standInPull(rest)
			late := pc.Reserve(0, tagToClient(seq), hdr, size/2)
			bufpool.Put(hdr)
			if late.Dst != nil {
				pc.Release(late)
				t.Error("a borrow started after the write returned")
			}
		})
	}
}

// TestDialedClientLendsNothing: a dialed client's reader writes every
// window its table grants, so the table never grants a write's: a pull
// that arrives with a payload of exactly its piece's size — the frame an
// in-process server offers — is served as a pull, and the application's
// array is never written.
func TestDialedClientLendsNothing(t *testing.T) {
	cfg := Config{NumClients: 1, NumServers: 1, SubchunkBytes: 64 << 10, OpTimeout: 10 * time.Second}
	s, comm := newStandIn(t, cfg)
	cl := NewClient(cfg, comm, clock.NewReal())
	defer cl.Shutdown()
	const size = 64 << 10
	spec := mustSpec1D(t, "dialed", size, 1, 1)
	buf := bytes.Repeat([]byte{0x5A}, size)
	done := make(chan error, 1)
	go func() { done <- cl.WriteArrays("", []ArraySpec{spec}, [][]byte{buf}) }()
	seq := <-s.requests

	whole := array.Region{Lo: []int{0}, Hi: []int{size / 4}}
	pull := standInPull(whole)
	err := s.write(wireFrame(tagToClient(seq), append(append([]byte{}, pull...), bytes.Repeat([]byte{0xEE}, size)...)))
	bufpool.Put(pull)
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "the pull to be served", func() bool { return cl.Stats().BytesSent >= size })
	if err := s.write(completeFrame(seq)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{0x5A}, size)) {
		t.Error("a pull's payload reached the application's array")
	}
	if p := cl.router.posted; p == nil || p.lends {
		t.Errorf("a dialed client's table %+v: want one that posts reads and lends no write", p)
	}
}

// TestInprocBorrowedPullZeroAlloc: in the steady state a borrowed pull
// — the server's pull encoded, offered, the window copied out and the
// borrow released — allocates nothing.
func TestInprocBorrowedPullZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats bufpool's reuse")
	}
	cfg := Config{NumClients: 1, NumServers: 1, SubchunkBytes: 8 << 10} // no OpTimeout: no timer per wait
	s, cl := newInprocStandIn(t, cfg)
	defer cl.Shutdown()
	const piece, pieces = 8 << 10, 64
	spec := mustSpec1D(t, "steady", piece*pieces, 1, 1)
	buf := make([]byte, piece*pieces)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	errc := make(chan error, 1)
	go func() { errc <- cl.WriteArrays("", []ArraySpec{spec}, [][]byte{buf}) }()
	seq := <-s.requests
	pc := mpi.PlaceRoute(s.servers[0])
	sub := make([]byte, piece)
	k := 0
	borrow := func() {
		off := k % pieces * piece
		hdr := standInPull(array.Region{Lo: []int{off / 4}, Hi: []int{(off + piece) / 4}})
		r := pc.Reserve(0, tagToClient(seq), hdr, piece)
		bufpool.Put(hdr)
		if r.Dst == nil {
			t.Fatal("a pull of the posted write was not borrowed")
		}
		copy(sub, r.Dst)
		pc.Release(r)
		k++
		runtime.Gosched()
	}
	for k < 100 {
		borrow()
	}
	if n := testing.AllocsPerRun(100, borrow); n != 0 {
		t.Errorf("a borrowed pull allocates %v", n)
	}
	if !bytes.Equal(sub, buf[(k-1)%pieces*piece:][:piece]) {
		t.Error("the last borrowed window does not hold its piece")
	}
	s.complete(seq, nil)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
