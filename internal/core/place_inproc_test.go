package core

import (
	"bytes"
	"errors"
	"hash/crc32"
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

// The in-process twins of place_test.go: in a World the server's gather
// (or its natural piece's copy) writes straight into the reading
// client's array, under the same posted-receive table and fence.

// inprocStandIn plays the server ranks of an in-process world for one
// real client at rank 0: it passes the seq of every op request to the
// test and sends the client whatever pieces the test asks for, from
// whichever server rank the test names.
type inprocStandIn struct {
	servers  []mpi.Comm // by server index; rank 1+i
	requests chan int
}

// standInStop is the tag the stand-in's master sends itself to stop
// receiving: no op's tag comes near it.
const standInStop = 1 << 30

func newInprocStandIn(t *testing.T, cfg Config) (*inprocStandIn, *Client) {
	t.Helper()
	world := mpi.NewWorld(cfg.WorldSize())
	s := &inprocStandIn{requests: make(chan int, 16)}
	for i := 0; i < cfg.NumServers; i++ {
		s.servers = append(s.servers, world.Comm(cfg.ServerRank(i)))
	}
	master := s.servers[0]
	exited := make(chan struct{})
	go func() { // the master server's receive: op requests in, everything else dropped
		defer close(exited)
		for {
			m := master.Recv(mpi.AnySource, mpi.AnyTag)
			if m.Source == master.Rank() && m.Tag == standInStop {
				return
			}
			if req, err := decodeOpRequest(m.Data); err == nil {
				s.requests <- int(req.Seq)
			}
		}
	}()
	cl := NewClient(cfg, world.Comm(0), clock.NewReal())
	t.Cleanup(func() {
		master.Send(master.Rank(), standInStop, nil)
		<-exited
	})
	return s, cl
}

// piece sends region reg of array 0 for op seq from server i, its
// payload taken from src (the whole array's bytes, 1-D): by SendVec,
// which places what the client has a place for.
func (s *inprocStandIn) piece(i, seq int, reg array.Region, src []byte) {
	hdr := encodeSubDataHeader(subData{Region: reg}, 0)
	mpi.SendSegments(s.servers[i], 0, tagToClient(seq), hdr, src[reg.Lo[0]*4:reg.Hi[0]*4])
	bufpool.Put(hdr)
}

// complete ends op seq from the master server, with err as its outcome.
func (s *inprocStandIn) complete(seq int, err error) {
	s.servers[0].Send(0, tagToClient(seq), encodeStatus(msgComplete, 0, 0, err))
}

// TestInprocReadsLandInPlace: over the in-process world both
// directions of a reorganizing read, and a natural read, come back
// bit-exact. A piece contiguous in the client's chunk is placed — the
// server's gather or copy writes the application's array — if its read
// was posted when the piece was sent; one that beat the post waits in
// the stash and is deposited, as is a piece strided in the client's
// chunk. So under any schedule every byte read is accounted once, placed
// (zero_copy_bytes) or deposited (the rest of contig_bytes plus
// reorg_bytes), and a strided read places nothing. Under the schedule in
// which every client posts before the master client's request starts
// the servers, a contiguous read places every byte.
func TestInprocReadsLandInPlace(t *testing.T) {
	shape := []int{256, 256}
	rows := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{2})
	cols := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{2})
	const arrayBytes = 256 * 256 * 4
	for _, tc := range []struct {
		name   string
		spec   ArraySpec
		placed int64 // by all clients, over the one read, when all posted first
	}{
		{"*,BLOCK memory over BLOCK,* disk", ArraySpec{Name: "cols", ElemSize: 4, Mem: cols, Disk: rows}, arrayBytes},
		{"BLOCK,* memory over *,BLOCK disk", ArraySpec{Name: "rows", ElemSize: 4, Mem: rows, Disk: cols}, 0},
		{"natural", ArraySpec{Name: "nat", ElemSize: 4, Mem: rows, Disk: rows}, arrayBytes},
	} {
		for _, postFirst := range []bool{false, true} {
			name := tc.name
			if postFirst {
				name += ", all posted first"
			}
			t.Run(name, func(t *testing.T) {
				cfg := Config{NumClients: 2, NumServers: 2, SubchunkBytes: 32 << 10, OpTimeout: 10 * time.Second}
				var placed, deposited, read atomic.Int64
				posted := make(chan struct{}, cfg.NumClients)
				specs := []ArraySpec{tc.spec}
				err := RunReal(cfg, memDisks(2), func(cl *Client) error {
					if err := cl.WriteArrays("", specs, makeBufs(cl, specs, true)); err != nil {
						return err
					}
					before := cl.Stats()
					got := makeBufs(cl, specs, false)
					if postFirst && cl.IsMaster() {
						for i := 1; i < cfg.NumClients; i++ {
							<-posted // the other clients' reads are posted
						}
					}
					h, err := cl.SubmitRead("", "", specs, got)
					if err != nil {
						return err
					}
					posted <- struct{}{}
					if err := h.Await(); err != nil {
						return err
					}
					after := cl.Stats()
					zc := after.ZeroCopyBytes - before.ZeroCopyBytes
					placed.Add(zc)
					deposited.Add(after.ContigBytes - before.ContigBytes + after.ReorgBytes - before.ReorgBytes - zc)
					read.Add(int64(len(got[0])))
					return checkBufs(cl, specs, got)
				})
				if err != nil {
					t.Fatal(err)
				}
				if read.Load() != arrayBytes || placed.Load()+deposited.Load() != read.Load() {
					t.Errorf("%d bytes placed + %d deposited, want the %d of %d bytes read", placed.Load(), deposited.Load(), read.Load(), arrayBytes)
				}
				if (postFirst || tc.placed == 0) && placed.Load() != tc.placed {
					t.Errorf("%d of %d bytes read were placed, want %d", placed.Load(), read.Load(), tc.placed)
				}
			})
		}
	}
}

// TestInprocConcurrentPlacements: two servers hold placements into one
// posted read at the same time — both reserved before either delivers —
// and the read comes back bit-exact with every byte placed. Under -race
// the detector sees the table's and the array's accesses.
func TestInprocConcurrentPlacements(t *testing.T) {
	cfg := Config{NumClients: 1, NumServers: 2, SubchunkBytes: 64 << 10, OpTimeout: 10 * time.Second}
	s, cl := newInprocStandIn(t, cfg)
	defer cl.Shutdown()
	const size, piece = 256 << 10, 16 << 10
	spec := mustSpec1D(t, "both", size, 1, 2)
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i*31 + i>>10)
	}
	buf := make([]byte, size)
	errc := make(chan error, 1)
	go func() { errc <- cl.ReadArrays("", []ArraySpec{spec}, [][]byte{buf}) }()
	seq := <-s.requests

	held := newBarrier(2) // both placements in progress before either ends
	var wg sync.WaitGroup
	for i := range s.servers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pc := mpi.PlaceRoute(s.servers[i])
			for off := i * size / 2; off < (i+1)*size/2; off += piece {
				reg := array.Region{Lo: []int{off / 4}, Hi: []int{(off + piece) / 4}}
				hdr := encodeSubDataHeader(subData{Region: reg}, 0)
				r := pc.Reserve(0, tagToClient(seq), hdr, piece)
				if r.Dst == nil {
					t.Errorf("server %d: piece at %d not placed", i, off)
					bufpool.Put(hdr)
					held()
					continue
				}
				held()
				copy(r.Dst, want[off:off+piece])
				pc.Deliver(r, hdr)
			}
		}(i)
	}
	wg.Wait()
	s.complete(seq, nil)
	if err := <-errc; err != nil || !bytes.Equal(buf, want) {
		t.Fatalf("read: %v, bit-exact %v", err, bytes.Equal(buf, want))
	}
	if zc := cl.Stats().ZeroCopyBytes; zc != size {
		t.Errorf("zero_copy_bytes %d, want %d", zc, size)
	}
}

// TestInprocFailedReadNeverWritesTheArray is the fence in process: a
// read that fails typed — aborted by its master, or out of OpTimeout —
// while a server holds a placement into its array does not return until
// that placement ends, and a piece sent after it returned takes the
// pooled path and never reaches the array. Under -race the detector also
// sees any late write.
func TestInprocFailedReadNeverWritesTheArray(t *testing.T) {
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
			payload := bytes.Repeat([]byte{0xC3}, size)
			buf := bytes.Repeat([]byte{0x5A}, size)
			type result struct {
				err error
				sum uint32
			}
			done := make(chan result, 1)
			go func() {
				err := cl.ReadArrays("", []ArraySpec{spec}, [][]byte{buf})
				done <- result{err, crc32.ChecksumIEEE(buf)}
			}()
			seq := <-s.requests

			half := array.Region{Lo: []int{0}, Hi: []int{size / 8}}
			pc := mpi.PlaceRoute(s.servers[1])
			hdr := encodeSubDataHeader(subData{Region: half}, 0)
			r := pc.Reserve(0, tagToClient(seq), hdr, size/2)
			if r.Dst == nil {
				t.Fatal("the first piece was not placed")
			}
			tc.fail(s, seq)
			select {
			case res := <-done:
				t.Fatalf("the read returned (%v) while a placement into its array was in progress", res.err)
			case <-time.After(cfg.OpTimeout + 200*time.Millisecond):
			}
			copy(r.Dst, payload)
			pc.Deliver(r, hdr)
			res := <-done
			if !errors.Is(res.err, tc.want) {
				t.Fatalf("read: %v, want %v", res.err, tc.want)
			}
			zc := cl.Stats().ZeroCopyBytes
			rest := array.Region{Lo: []int{size / 8}, Hi: []int{size / 4}}
			s.piece(1, seq, rest, payload)
			time.Sleep(50 * time.Millisecond) // room for a late write to land, were one possible
			if sum := crc32.ChecksumIEEE(buf); sum != res.sum {
				t.Errorf("the array changed after the read returned: checksum %08x, was %08x", sum, res.sum)
			}
			if got := cl.Stats().ZeroCopyBytes; got != zc {
				t.Errorf("%d bytes were placed after the read returned", got-zc)
			}
		})
	}
}

// TestInprocFrameBeforePostIsAbsorbed: pieces that reach the client
// before their read is posted find no place, are stashed by its router
// and absorbed once the read starts — bit-exact, nothing placed, the
// same bytes received and moved as a placed read of the same array.
func TestInprocFrameBeforePostIsAbsorbed(t *testing.T) {
	cfg := Config{NumClients: 1, NumServers: 1, SubchunkBytes: 64 << 10, OpTimeout: 10 * time.Second}
	s, cl := newInprocStandIn(t, cfg)
	defer cl.Shutdown()
	const size, piece = 256 << 10, 64 << 10
	specs := []ArraySpec{mustSpec1D(t, "early", size, 1, 1)}
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i*131 + i>>9)
	}
	sendAll := func(seq int) {
		for off := 0; off < size; off += piece {
			s.piece(0, seq, array.Region{Lo: []int{off / 4}, Hi: []int{(off + piece) / 4}}, want)
		}
	}
	read := func(serve func(seq int)) ([]byte, Stats) {
		t.Helper()
		before := cl.Stats()
		buf := make([]byte, size)
		errc := make(chan error, 1)
		go func() { errc <- cl.ReadArrays("", specs, [][]byte{buf}) }()
		serve(<-s.requests)
		if err := <-errc; err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("read: %v, bit-exact %v", err, bytes.Equal(buf, want))
		}
		after := cl.Stats()
		return buf, Stats{
			BytesRecv:     after.BytesRecv - before.BytesRecv,
			ContigBytes:   after.ContigBytes - before.ContigBytes,
			ZeroCopyBytes: after.ZeroCopyBytes - before.ZeroCopyBytes,
		}
	}

	_, placed := read(func(seq int) { sendAll(seq); s.complete(seq, nil) })
	if placed.ZeroCopyBytes != size {
		t.Fatalf("placed read: zero_copy_bytes %d, want %d", placed.ZeroCopyBytes, size)
	}
	sendAll(1)
	eventually(t, "the frames to be stashed", func() bool { return stashed(cl, 1) == size/piece })
	_, pooled := read(func(seq int) { s.complete(seq, nil) })
	if pooled.ZeroCopyBytes != 0 || pooled.BytesRecv != placed.BytesRecv || pooled.ContigBytes != placed.ContigBytes {
		t.Errorf("stashed read moved %+v, placed read %+v: want the same bytes_recv and contig_bytes, no zero_copy_bytes", pooled, placed)
	}
}

// TestInprocFaultCommKeepsThePooledPath: a world behind FaultComm
// offers no placing path — its plan must see every frame whole — so a
// write whose pulls would all be borrowed and a read that would place
// everything in a bare world borrow and place nothing, and the chaos
// tests' outcomes do not move.
func TestInprocFaultCommKeepsThePooledPath(t *testing.T) {
	shape := []int{256, 256}
	rows := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{2})
	cols := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{2})
	specs := []ArraySpec{{Name: "cols", ElemSize: 4, Mem: cols, Disk: rows}}
	reg := obs.NewRegistry()
	cfg := Config{NumClients: 2, NumServers: 2, SubchunkBytes: 32 << 10, OpTimeout: 10 * time.Second, Metrics: reg}
	comms := wrapWorld(cfg, mpi.NewFaultPlan(1))
	for r, c := range comms {
		if mpi.PlaceRoute(c) != nil {
			t.Fatalf("rank %d: FaultComm offers a placing path", r)
		}
	}
	if _, err := RunWith(cfg, comms, memDisks(2), writeReadBack(specs)); err != nil {
		t.Fatal(err)
	}
	if zc := reg.Counter("zero_copy_bytes").Value(); zc != 0 {
		t.Errorf("%d bytes borrowed or placed behind FaultComm, want 0", zc)
	}
}

// TestInprocPlacedFrameZeroAlloc: in the steady state a piece placed in
// process — a server's gather reserved, filled and delivered, or a
// natural piece sent by SendVec; the router routing its header, the
// executor counting it — allocates nothing.
func TestInprocPlacedFrameZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats bufpool's reuse")
	}
	cfg := Config{NumClients: 1, NumServers: 1, SubchunkBytes: 8 << 10} // no OpTimeout: no timer per wait
	s, cl := newInprocStandIn(t, cfg)
	defer cl.Shutdown()
	const piece, pieces = 8 << 10, 512
	spec := mustSpec1D(t, "steady", piece*pieces, 1, 1)
	want := make([]byte, piece*pieces)
	for i := range want {
		want[i] = byte(i * 7)
	}
	buf := make([]byte, piece*pieces)
	errc := make(chan error, 1)
	go func() { errc <- cl.ReadArrays("", []ArraySpec{spec}, [][]byte{buf}) }()
	seq := <-s.requests
	pc := mpi.PlaceRoute(s.servers[0])
	sent := 0
	send := func() {
		reg := array.Region{Lo: []int{sent * piece / 4}, Hi: []int{(sent + 1) * piece / 4}}
		if sent%2 == 0 {
			s.piece(0, seq, reg, want)
		} else {
			hdr := encodeSubDataHeader(subData{Region: reg}, 0)
			r := pc.Reserve(0, tagToClient(seq), hdr, piece)
			copy(r.Dst, want[sent*piece:])
			pc.Deliver(r, hdr)
		}
		sent++
		for cl.cnt[cZeroCopyBytes].Value() < int64(sent*piece) {
			runtime.Gosched()
		}
	}
	for sent < 300 {
		send()
	}
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Errorf("a piece placed in process allocates %v", n)
	}
	for sent < pieces {
		send()
	}
	s.complete(seq, nil)
	if err := <-errc; err != nil || !bytes.Equal(buf, want) {
		t.Fatalf("read: %v, bit-exact %v", err, bytes.Equal(buf, want))
	}
}
