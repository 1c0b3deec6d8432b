package core

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/queue"
	"panda/internal/storage"
	"panda/internal/vtime"
)

// capability_test.go: every fast path is found by unwrapping — mpi's
// capability probes walk down a chain of observers (wrappers with an
// Unwrap method), and so does storage.HostFile — so an observer runs the
// program its endpoint or file would, and an interposer (a wrapper
// without Unwrap) hides every fast path behind it.

// observerComm is shaped like a tracer's wrapper: it forwards every
// call, sends segments through a SendVec of its own, and is an observer.
type observerComm struct{ inner mpi.Comm }

func (c *observerComm) Rank() int                          { return c.inner.Rank() }
func (c *observerComm) Size() int                          { return c.inner.Size() }
func (c *observerComm) Send(to, tag int, data []byte)      { c.inner.Send(to, tag, data) }
func (c *observerComm) SendOwned(to, tag int, data []byte) { c.inner.SendOwned(to, tag, data) }
func (c *observerComm) Isend(to, tag int, data []byte) mpi.Request {
	return c.inner.Isend(to, tag, data)
}
func (c *observerComm) Recv(from, tag int) mpi.Message { return c.inner.Recv(from, tag) }
func (c *observerComm) RecvTimeout(from, tag int, timeout time.Duration) (mpi.Message, error) {
	return c.inner.(mpi.DeadlineComm).RecvTimeout(from, tag, timeout)
}
func (c *observerComm) PeerLost(rank int) bool { return c.inner.(mpi.PeerChecker).PeerLost(rank) }
func (c *observerComm) SendVec(to, tag int, hdr, payload []byte) bool {
	return mpi.SendSegments(c.inner, to, tag, hdr, payload)
}
func (c *observerComm) Unwrap() mpi.Comm { return c.inner }

// observerFile is shaped like a tracer's file wrapper: an observer.
type observerFile struct{ storage.File }

func (f observerFile) Unwrap() storage.File { return f.File }

// capPlacer is a posted receive for one frame: on tagVec it places the
// payload past a capHdr-byte header into buf.
type capPlacer struct{ buf []byte }

const (
	tagVec, tagIsend = 3, 4
	capHdr           = 16
	capPayload       = 8 << 10 // past a dialed reader's buffer, so it is offered to the placer
)

func (p *capPlacer) Place(source, tag int, head []byte, n int) (int, []byte) {
	if tag != tagVec || n != capHdr+len(p.buf) {
		return 0, nil
	}
	return capHdr, p.buf
}

func (p *capPlacer) Placed(int) {}

// capTransport is a two-rank world of one transport and what its bare
// endpoints offer: rank 0 sends, rank 1 receives.
type capTransport struct {
	name string
	// file and place: rank 0's FileRoute and PlaceRoute; post0 and
	// post1: whether each rank takes posted receives; vec: whether
	// rank 0's segments go out without a flattening copy.
	file, place, post0, post1, vec bool
	run                            capRun
}

// capRun builds the world, calls post on both endpoints, then send on
// rank 0 and recv on rank 1 concurrently, each with its rank's clock.
type capRun func(t *testing.T, post, send, recv func(c mpi.Comm, clk clock.Clock))

// runReal drives a real-time world of two endpoints.
func runReal(a, b mpi.Comm, post, send, recv func(mpi.Comm, clock.Clock)) {
	clk := clock.NewReal()
	post(a, clk)
	post(b, clk)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); recv(b, clk) }()
	send(a, clk)
	wg.Wait()
}

func capTransports() []capTransport {
	linux := runtime.GOOS == "linux"
	hub := func(local0 bool) capRun {
		return func(t *testing.T, post, send, recv func(mpi.Comm, clock.Clock)) {
			comms, shut, err := hubWorld(Config{NumClients: 1, NumServers: 1}, func(r int) bool { return r == 0 && local0 })
			if err != nil {
				t.Fatal(err)
			}
			defer shut()
			runReal(comms[0], comms[1], post, send, recv)
		}
	}
	return []capTransport{
		{name: "World", place: true, post0: true, post1: true, vec: true,
			run: func(t *testing.T, post, send, recv func(mpi.Comm, clock.Clock)) {
				w := mpi.NewWorld(2)
				runReal(w.Comm(0), w.Comm(1), post, send, recv)
			}},
		{name: "hub-local", file: linux, post1: true, vec: true, run: hub(true)},
		{name: "dialed", file: linux, post0: true, post1: true, vec: true, run: hub(false)},
		{name: "simnet",
			run: func(t *testing.T, post, send, recv func(mpi.Comm, clock.Clock)) {
				sim := vtime.New()
				w := mpi.NewSimWorld(sim, 2, mpi.SP2Link())
				sim.Spawn("recv", func(p *vtime.Proc) {
					c, clk := w.Bind(1, p), clock.NewVirtual(p)
					post(c, clk)
					recv(c, clk)
				})
				sim.Spawn("send", func(p *vtime.Proc) {
					c, clk := w.Bind(0, p), clock.NewVirtual(p)
					post(c, clk)
					send(c, clk)
				})
				if err := sim.Run(); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "mesh", vec: true,
			run: func(t *testing.T, post, send, recv func(mpi.Comm, clock.Clock)) {
				reg, err := mpi.ListenRegistry("127.0.0.1:0", 2)
				if err != nil {
					t.Fatal(err)
				}
				go reg.Serve() //nolint:errcheck // a failed join fails the test
				comms := make([]mpi.Comm, 2)
				errs := make([]error, 2)
				var wg sync.WaitGroup
				for r := range comms {
					wg.Add(1)
					go func() { defer wg.Done(); comms[r], errs[r] = mpi.JoinMesh(reg.Addr(), r, 2) }()
				}
				wg.Wait()
				if err := errors.Join(errs...); err != nil {
					t.Fatal(err)
				}
				defer mpi.CloseMesh(comms[0])
				defer mpi.CloseMesh(comms[1])
				runReal(comms[0], comms[1], post, send, recv)
			}},
	}
}

// capWrapper wraps an endpoint driven by clk in one kind of wrapper.
type capWrapper struct {
	name     string
	observer bool
	wrap     func(c mpi.Comm, clk clock.Clock) mpi.Comm
}

func capWrappers() []capWrapper {
	box := func() *queue.Q[mpi.Message] { return queue.New[mpi.Message](nil) }
	fault := func(c mpi.Comm, clk clock.Clock) mpi.Comm { return mpi.WrapFault(c, mpi.NewFaultPlan(1), clk) }
	return []capWrapper{
		{"bare", true, func(c mpi.Comm, _ clock.Clock) mpi.Comm { return c }},
		{"observer", true, func(c mpi.Comm, _ clock.Clock) mpi.Comm { return &observerComm{c} }},
		{"routed", true, func(c mpi.Comm, clk clock.Clock) mpi.Comm { return newRoutedComm(c, box(), clk) }},
		{"routed/observer", true, func(c mpi.Comm, clk clock.Clock) mpi.Comm {
			return newRoutedComm(&observerComm{c}, box(), clk)
		}},
		{"FaultComm", false, fault},
		{"observer/FaultComm", false, func(c mpi.Comm, clk clock.Clock) mpi.Comm { return &observerComm{fault(c, clk)} }},
		{"routed/FaultComm", false, func(c mpi.Comm, clk clock.Clock) mpi.Comm { return newRoutedComm(fault(c, clk), box(), clk) }},
		{"lagComm", false, func(c mpi.Comm, _ clock.Clock) mpi.Comm { return &lagComm{endpoint: asEndpoint(c)} }},
		{"dropComm", false, func(c mpi.Comm, _ clock.Clock) mpi.Comm { return &dropComm{endpoint: asEndpoint(c)} }},
		{"requestTap", false, func(c mpi.Comm, _ clock.Clock) mpi.Comm {
			return &requestTap{endpoint: asEndpoint(c), copies: func(int32) int { return 1 }}
		}},
	}
}

// TestCapabilitiesThroughWrappers sweeps every transport through every
// kind of wrapper. Through an observer, FileRoute, PlaceRoute,
// PostReceives and SendSegments answer as on the bare endpoint, and a
// posted receive through it is where the payload lands. Through an
// interposer each answers nil or false and the payload goes out
// flattened, unplaced. Either way a segmented send and an Isend + Wait
// deliver bit-exact.
func TestCapabilitiesThroughWrappers(t *testing.T) {
	hdr := make([]byte, capHdr)
	payload := make([]byte, capPayload)
	isend := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i*7 + 1)
	}
	for i := range hdr {
		hdr[i] = byte(0xA0 + i)
	}
	for i := range isend {
		isend[i] = byte(i*13 + 5)
	}
	want := append(append([]byte(nil), hdr...), payload...)
	for _, tr := range capTransports() {
		for _, w := range capWrappers() {
			t.Run(tr.name+"/"+w.name, func(t *testing.T) {
				exp := tr
				if !w.observer {
					exp = capTransport{}
				}
				pl := &capPlacer{buf: make([]byte, capPayload)}
				post := func(c mpi.Comm, clk clock.Clock) {
					wanted := exp.post0
					if c.Rank() == 1 {
						wanted = exp.post1
					}
					if got := mpi.PostReceives(w.wrap(c, clk), pl); got != wanted {
						t.Errorf("rank %d: PostReceives = %v, want %v", c.Rank(), got, wanted)
					}
				}
				send := func(c mpi.Comm, clk clock.Clock) {
					wc := w.wrap(c, clk)
					if got := mpi.FileRoute(wc) != nil; got != exp.file {
						t.Errorf("FileRoute offered = %v, want %v", got, exp.file)
					}
					if got := mpi.PlaceRoute(wc) != nil; got != exp.place {
						t.Errorf("PlaceRoute offered = %v, want %v", got, exp.place)
					}
					if got := mpi.SendSegments(wc, 1, tagVec, hdr, payload); got != exp.vec {
						t.Errorf("SendSegments avoided the copy = %v, want %v", got, exp.vec)
					}
					wc.Isend(1, tagIsend, isend).Wait()
				}
				recv := func(c mpi.Comm, _ clock.Clock) {
					dc := c.(mpi.DeadlineComm)
					m, err := dc.RecvTimeout(0, tagVec, 10*time.Second)
					if err != nil {
						t.Errorf("segments: %v", err)
						return
					}
					if placed := m.Placed > 0; placed != exp.post1 {
						t.Errorf("segments placed = %v, want %v", placed, exp.post1)
					}
					if got := append(append([]byte(nil), m.Data...), pl.buf[:m.Placed]...); !bytes.Equal(got, want) {
						t.Errorf("segments arrived as %d bytes (%d placed), not bit-exact", len(got), m.Placed)
					}
					if m, err = dc.RecvTimeout(0, tagIsend, 10*time.Second); err != nil || !bytes.Equal(m.Data, isend) {
						t.Errorf("Isend arrived as %d bytes, %v; want %d bit-exact", len(m.Data), err, len(isend))
					}
				}
				tr.run(t, post, send, recv)
			})
		}
	}
}

// TestHostFileThroughWrappers: an OSDisk handle shows its host file
// through an observer, and through none of the interposers — SimDisk's
// (whose reads charge the AIX model), FaultDisk's and the test disks
// that delay, trace, record or gate calls — nor through an observer
// over one of them.
func TestHostFileThroughWrappers(t *testing.T) {
	osd, err := storage.NewOSDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if f, err := osd.Create("host"); err != nil || f.Close() != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		disk storage.Disk
		wrap func(storage.File) storage.File
		host bool
	}{
		{"bare", osd, nil, true},
		{"observer", osd, func(f storage.File) storage.File { return observerFile{f} }, true},
		{"observer/observer", osd, func(f storage.File) storage.File { return observerFile{observerFile{f}} }, true},
		{"SimDisk", storage.NewSimDisk(osd, storage.SP2AIX(), clock.NewReal()), nil, false},
		{"FaultDisk", &storage.FaultDisk{Inner: osd}, nil, false},
		{"observer/FaultDisk", &storage.FaultDisk{Inner: osd}, func(f storage.File) storage.File { return observerFile{f} }, false},
		{"traceDisk", &traceDisk{inner: osd, trace: &diskTrace{}}, nil, false},
		{"slowDisk", &slowDisk{Disk: osd}, nil, false},
		{"callDisk", &callDisk{Disk: osd}, nil, false},
	} {
		f, err := tc.disk.Open("host")
		if err != nil {
			t.Fatal(err)
		}
		if tc.wrap != nil {
			f = tc.wrap(f)
		}
		if got := storage.HostFile(f) != nil; got != tc.host {
			t.Errorf("%s: HostFile found = %v, want %v", tc.name, got, tc.host)
		}
		f.Close()
	}
}

// TestRoutedViewOverObserverSeesLinkLoss: a routed view over an observer
// reads its transport's link error through the observer, so a wildcard
// bounded receive fails with ErrPeerLost at its first wake after the
// transport is cut instead of waiting out its timeout.
func TestRoutedViewOverObserverSeesLinkLoss(t *testing.T) {
	hub, err := mpi.ListenHub("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	local, err := hub.Local(0)
	if err != nil {
		t.Fatal(err)
	}
	box := queue.New[mpi.Message](nil)
	routed := newRoutedComm(&observerComm{local}, box, clock.NewReal())
	errc := make(chan error, 1)
	go func() {
		_, err := routed.RecvTimeout(mpi.AnySource, tagVec, time.Minute)
		errc <- err
	}()
	mpi.CloseComm(local)
	box.Wake()
	select {
	case err := <-errc:
		if !errors.Is(err, mpi.ErrPeerLost) {
			t.Fatalf("receive on a cut link failed with %v, want ErrPeerLost", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a routed view over an observer waits out a cut link")
	}
}

// TestCapabilityWalkZeroAlloc: finding a fast path by unwrapping
// allocates nothing — PlaceRoute, FileRoute and a SendSegments (received
// back and recycled) through a routed view over a World endpoint and
// over a hub-local one, and HostFile through an observed OSDisk file.
func TestCapabilityWalkZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats bufpool's reuse")
	}
	hub, err := mpi.ListenHub("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	local, err := hub.Local(0)
	if err != nil {
		t.Fatal(err)
	}
	hdr, payload := make([]byte, capHdr), make([]byte, 1<<10)
	for _, under := range []mpi.Comm{mpi.NewWorld(1).Comm(0), local} {
		rc := newRoutedComm(under, queue.New[mpi.Message](nil), clock.NewReal())
		dc := under.(mpi.DeadlineComm)
		for _, probe := range []struct {
			name string
			fn   func()
		}{
			{"PlaceRoute", func() { mpi.PlaceRoute(rc) }},
			{"FileRoute", func() { mpi.FileRoute(rc) }},
			{"SendSegments", func() {
				mpi.SendSegments(rc, 0, tagVec, hdr, payload)
				m, err := dc.RecvTimeout(0, tagVec, time.Second)
				if err != nil {
					t.Fatal(err)
				}
				bufpool.Put(m.Data)
			}},
		} {
			if n := testing.AllocsPerRun(200, probe.fn); n != 0 {
				t.Errorf("%T: %s through a routed view allocates %v", under, probe.name, n)
			}
		}
	}

	osd, err := storage.NewOSDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := osd.Create("host")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var observed storage.File = observerFile{f}
	if n := testing.AllocsPerRun(200, func() { storage.HostFile(observed) }); n != 0 {
		t.Errorf("HostFile through an observer allocates %v", n)
	}
}
