package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/obs"
	"panda/internal/storage"
)

// runHubLocal runs app on dialed clients against servers attached to a
// hub in process — the daemon's shape: what a server sends a client
// leaves through the hub's writer onto the client's socket. wrap, when
// set, stands between each server and its endpoint.
func runHubLocal(cfg Config, disks []storage.Disk, wrap func(mpi.Comm) mpi.Comm, app App) error {
	attached, shut, err := hubWorld(cfg, cfg.IsServer)
	if err != nil {
		return err
	}
	comms := append([]mpi.Comm(nil), attached...)
	for i := 0; wrap != nil && i < cfg.NumServers; i++ {
		comms[cfg.ServerRank(i)] = wrap(comms[cfg.ServerRank(i)])
	}
	_, err = RunWith(cfg, comms, disks, app)
	if herr := shut(); err == nil {
		err = herr
	}
	return err
}

// osDisks gives each of n servers a directory of host files.
func osDisks(t *testing.T, n int) []storage.Disk {
	t.Helper()
	disks := make([]storage.Disk, n)
	for i := range disks {
		d, err := storage.NewOSDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		disks[i] = d
	}
	return disks
}

// zeroCopyCfg is two dialed clients and two hub-local servers, every
// wait bounded.
func zeroCopyCfg(reg *obs.Registry) Config {
	return Config{NumClients: 2, NumServers: 2, SubchunkBytes: 4 << 10, OpTimeout: 10 * time.Second, Metrics: reg}
}

// TestReadArmSelection: a natural read of host files over a socket
// transport leaves by sendfile — bit-exact, and the servers'
// zero_copy_bytes is every byte they served. Every other read keeps its buffered arm,
// bit-exact with zero_copy_bytes 0: strided pieces (a gather is needed),
// in-memory and fault-injecting disks (no host file behind the handle),
// and servers under FaultComm, whose plan must see every frame.
func TestReadArmSelection(t *testing.T) {
	natural := []ArraySpec{mustSpec1D(t, "natural", 64<<10, 2, 2)}
	strided := packOnceSpecs()[:1] // "gather": every read piece is strided in its sub-chunk
	faultOS := func(t *testing.T) []storage.Disk {
		disks := osDisks(t, 2)
		for i, d := range disks {
			disks[i] = &storage.FaultDisk{Inner: d}
		}
		return disks
	}
	faultyUnder := func(plan *mpi.FaultPlan) func(mpi.Comm) mpi.Comm {
		return func(c mpi.Comm) mpi.Comm { return mpi.WrapFault(c, plan, clock.NewReal()) }
	}
	faulty := faultyUnder(mpi.NewFaultPlan(1))
	for _, tc := range []struct {
		name     string
		specs    []ArraySpec
		disks    func(t *testing.T) []storage.Disk
		wrap     func(mpi.Comm) mpi.Comm
		zeroCopy bool
	}{
		{"natural/host files", natural, func(t *testing.T) []storage.Disk { return osDisks(t, 2) }, nil, runtime.GOOS == "linux"},
		{"strided/host files", strided, func(t *testing.T) []storage.Disk { return osDisks(t, 2) }, nil, false},
		{"natural/MemDisk", natural, func(*testing.T) []storage.Disk { return memDisks(2) }, nil, false},
		{"natural/FaultDisk", natural, faultOS, nil, false},
		{"natural/FaultComm", natural, func(t *testing.T) []storage.Disk { return osDisks(t, 2) }, faulty, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			var placed atomic.Int64 // the clients' share of the counter: posted receives
			err := runHubLocal(zeroCopyCfg(reg), tc.disks(t), tc.wrap, func(cl *Client) error {
				err := writeReadBack(tc.specs)(cl)
				placed.Add(cl.Stats().ZeroCopyBytes)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			var served int64
			for _, s := range tc.specs {
				served += s.TotalBytes()
			}
			want := int64(0)
			if tc.zeroCopy {
				want = served
			}
			if got := reg.Counter("zero_copy_bytes").Value() - placed.Load(); got != want {
				t.Errorf("servers' zero_copy_bytes = %d after reading %d bytes, want %d", got, served, want)
			}
		})
	}

	// The fault plan still drops what a server sends its clients: with
	// every server frame dropped a read delivers nothing and times out,
	// and once healed the next read is whole. Client 0 arms and heals the
	// plan between collectives while the other waits; every client passes
	// every gate, so a failure is reported, never hung on.
	t.Run("FaultComm drops", func(t *testing.T) {
		plan := mpi.NewFaultPlan(1)
		cfg := zeroCopyCfg(nil)
		cfg.OpTimeout = 1500 * time.Millisecond
		var wrote sync.WaitGroup
		wrote.Add(cfg.NumClients)
		armed, healed := make(chan struct{}), make(chan struct{})
		err := runHubLocal(cfg, osDisks(t, 2), faultyUnder(plan), func(cl *Client) error {
			werr := writeReadBack(natural)(cl)
			wrote.Done()
			if cl.Rank() == 0 {
				wrote.Wait()
				plan.DropProb = 1
				close(armed)
			}
			<-armed
			before := cl.Stats().MsgsRecv
			derr := cl.ReadArrays(".ckpt", natural, makeBufs(cl, natural, false))
			leaked := cl.Stats().MsgsRecv - before
			if cl.Rank() == 0 {
				plan.Heal()
				close(healed)
			}
			<-healed
			got := makeBufs(cl, natural, false)
			rerr := cl.ReadArrays(".ckpt", natural, got)
			switch {
			case werr != nil:
				return werr
			case !errors.Is(derr, ErrTimeout):
				return fmt.Errorf("read with every server frame dropped: %v, want ErrTimeout", derr)
			case leaked != 0:
				return fmt.Errorf("client %d received %d frames the fault plan should have dropped", cl.Rank(), leaked)
			case rerr != nil:
				return fmt.Errorf("read once healed: %w", rerr)
			}
			return checkBufs(cl, natural, got)
		})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Stats().Dropped == 0 {
			t.Fatal("the fault plan dropped nothing")
		}
	})
}

// TestShortFileFailsTypedAndKeepsTheLink: a file that shrinks between
// the server's size check and its send fails the read with ErrCorrupt,
// typed; the frame that ran short still went out whole, so no link is
// taken down and the session's next read is bit-exact.
func TestShortFileFailsTypedAndKeepsTheLink(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the zero-copy arm runs on Linux only")
	}
	specs := []ArraySpec{mustSpec1D(t, "short", 64<<10, 2, 2)}
	cfg := zeroCopyCfg(nil)

	var mu sync.Mutex
	var victim string
	var saved []byte
	var once sync.Once
	fileSourceHook = func(f *os.File) {
		once.Do(func() {
			data, err := os.ReadFile(f.Name())
			if err == nil {
				err = f.Truncate(int64(len(data)/2 + 100)) // mid-sub-chunk, mid-frame
			}
			if err != nil {
				t.Errorf("truncating %s: %v", f.Name(), err)
			}
			mu.Lock()
			victim, saved = f.Name(), data
			mu.Unlock()
		})
	}
	defer func() { fileSourceHook = nil }()

	restored := make(chan struct{})
	err := runHubLocal(cfg, osDisks(t, 2), nil, func(cl *Client) error {
		werr := cl.WriteArrays("", specs, makeBufs(cl, specs, true))
		serr := cl.ReadArrays("", specs, makeBufs(cl, specs, false))
		lost := -1
		for i := 0; i < cfg.NumServers; i++ {
			if cl.comm.(mpi.PeerChecker).PeerLost(cfg.ServerRank(i)) {
				lost = i
			}
		}
		var ferr error
		if cl.Rank() == 0 { // put the file back between the two reads
			mu.Lock()
			if victim != "" {
				ferr = os.WriteFile(victim, saved, 0o644)
			}
			mu.Unlock()
			close(restored)
		}
		<-restored
		got := makeBufs(cl, specs, false)
		rerr := cl.ReadArrays("", specs, got)
		switch {
		case werr != nil:
			return werr
		case !errors.Is(serr, ErrCorrupt):
			return fmt.Errorf("read of a file truncated under the server: %v, want ErrCorrupt", serr)
		case lost >= 0:
			return fmt.Errorf("client %d saw server %d announced dead after a short file", cl.Rank(), lost)
		case ferr != nil:
			return ferr
		case rerr != nil:
			return fmt.Errorf("the read after a short file: %w", rerr)
		}
		return checkBufs(cl, specs, got)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVerifyOnRestartFailsBeforeSending: with VerifyOnRestart a file that
// contradicts its manifest fails the read before the zero-copy arm sends
// a byte of it.
func TestVerifyOnRestartFailsBeforeSending(t *testing.T) {
	specs := []ArraySpec{mustSpec1D(t, "torn", 64<<10, 2, 2)}
	reg := obs.NewRegistry()
	cfg := zeroCopyCfg(reg)
	cfg.VerifyOnRestart = true
	disks := osDisks(t, 2)

	torn := make(chan struct{})
	var sent, moved int64
	err := runHubLocal(cfg, disks, nil, func(cl *Client) error {
		werr := cl.WriteArrays("", specs, makeBufs(cl, specs, true))
		var terr error
		if cl.Rank() == 0 { // tear every server's file between write and read
			for i, d := range disks {
				if err := flipByte(filepath.Join(d.(*storage.OSDisk).Root(), specs[0].FileName("", i))); err != nil {
					terr = err
				}
			}
			sent, moved = reg.Counter("zero_copy_bytes").Value(), reg.Counter("contig_bytes").Value()
			close(torn)
		}
		<-torn
		rerr := cl.ReadArrays("", specs, makeBufs(cl, specs, false))
		switch {
		case werr != nil:
			return werr
		case terr != nil:
			return terr
		case !errors.Is(rerr, ErrCorrupt):
			return fmt.Errorf("verified read of torn files: %v, want ErrCorrupt", rerr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("zero_copy_bytes").Value(); got != sent {
		t.Errorf("zero_copy_bytes moved %d → %d: torn bytes left the server", sent, got)
	}
	if got := reg.Counter("contig_bytes").Value(); got != moved {
		t.Errorf("contig_bytes moved %d → %d: a piece of a torn file was placed", moved, got)
	}
}

// flipByte inverts the first byte of a file.
func flipByte(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], 0); err != nil {
		return err
	}
	b[0] = ^b[0]
	_, err = f.WriteAt(b[:], 0)
	return err
}
