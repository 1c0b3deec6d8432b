// Restart: checkpoint a running computation through Panda, kill an I/O
// node in the middle of a checkpoint, scrub the torn epoch off the
// disks, and restart a brand-new cluster from the last committed
// checkpoint — the paper's checkpoint/restart operations made
// crash-consistent.
//
// The run crashes the master I/O node after it has pulled only part of
// the step-6 checkpoint. Because every checkpoint is staged as an
// epoch and committed atomically, the half-pulled data is debris, not
// damage: the step-4 checkpoint is still served intact.
//
//	go run ./examples/restart
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"os"

	"time"

	"panda"
	"panda/internal/array"
	"panda/internal/clock"
	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/storage"
)

const (
	computeNodes = 4
	ioNodes      = 2
	totalSteps   = 10
	crashStep    = 6 // the checkpoint the crash interrupts
)

// evolve advances one node's chunk by one deterministic step.
func evolve(buf []byte) {
	for i := 0; i+8 <= len(buf); i += 8 {
		v := binary.LittleEndian.Uint64(buf[i:])
		binary.LittleEndian.PutUint64(buf[i:], v*6364136223846793005+1442695040888963407)
	}
}

func main() {
	dir, err := os.MkdirTemp("", "panda-restart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// One array: 32×32 float64, BLOCK×BLOCK across a 2×2 compute mesh,
	// chunked BLOCK,* across the I/O nodes on disk.
	spec := core.ArraySpec{
		Name: "state", ElemSize: 8,
		Mem:  array.MustSchema([]int{32, 32}, []array.Dist{array.Block, array.Block}, []int{2, 2}),
		Disk: array.MustSchema([]int{32, 32}, []array.Dist{array.Block, array.Star}, []int{ioNodes}),
	}
	specs := []core.ArraySpec{spec}

	// Reference trajectory: every node's chunk at every step, computed
	// in memory with no cluster and no crash.
	traj := make([][][]byte, computeNodes)
	for r := range traj {
		buf := make([]byte, spec.MemChunkBytes(r))
		traj[r] = append(traj[r], append([]byte(nil), buf...))
		for s := 1; s <= totalSteps; s++ {
			evolve(buf)
			traj[r] = append(traj[r], append([]byte(nil), buf...))
		}
	}

	// First run: compute, checkpoint every other step, and kill the
	// master I/O node two messages into the step-6 checkpoint — after
	// it has requested some of the data but long before anything could
	// commit. CrashAfterSends places the failure deterministically.
	cfg := core.Config{
		NumClients: computeNodes, NumServers: ioNodes,
		OpTimeout: 2 * time.Second, PullRetries: 1,
	}
	plan := mpi.NewFaultPlan(1)
	world := mpi.NewWorld(cfg.WorldSize())
	comms := make([]mpi.Comm, cfg.WorldSize())
	for r := range comms {
		comms[r] = mpi.WrapFault(world.Comm(r), plan, clock.NewReal())
	}
	disks := make([]storage.Disk, ioNodes)
	for i := range disks {
		d, err := storage.NewOSDisk(storage.NodeDir(dir, i))
		if err != nil {
			log.Fatal(err)
		}
		disks[i] = d
	}
	errs, runErr := core.RunWith(cfg, comms, disks, func(cl *core.Client) error {
		buf := make([]byte, spec.MemChunkBytes(cl.Rank()))
		for s := 1; s <= crashStep; s++ {
			evolve(buf)
			if s%2 != 0 {
				continue
			}
			if s == crashStep && cl.IsMaster() {
				// Arm the crash just before this client issues the
				// checkpoint: the master I/O node's next two sends (the
				// plan forward and the first data pull) go through, then
				// it dies mid-checkpoint.
				plan.CrashAfterSends(cfg.ServerRank(0), 2)
			}
			if err := cl.WriteArrays(".ckpt", specs, [][]byte{buf}); err != nil {
				return err
			}
		}
		return nil
	})
	if runErr == nil {
		log.Fatal("expected the interrupted checkpoint to fail, but it completed")
	}
	switch {
	case errors.Is(errs[0], core.ErrPeerLost):
		fmt.Printf("step-%d checkpoint failed: I/O node lost (as injected)\n", crashStep)
	case errors.Is(errs[0], core.ErrTimeout):
		fmt.Printf("step-%d checkpoint timed out: I/O node dead (as injected)\n", crashStep)
	default:
		log.Fatalf("unexpected failure from interrupted checkpoint: %v", errs[0])
	}

	// Scrub the directory, exactly as `pandafsck <dir>` would: the torn
	// epoch is warn-level debris — a crash legitimately leaves it, and
	// the committed step-4 checkpoint is untouched.
	rep, err := storage.Scrub(disks, false)
	if err != nil {
		log.Fatal(err)
	}
	for _, is := range rep.Issues {
		fmt.Printf("  scrub: ion%d %s: %s (%s)\n", is.Disk, is.Name, is.Problem, is.Severity)
	}
	if !rep.OK() {
		log.Fatal("scrub found unrecoverable damage; the commit protocol should never allow this")
	}
	if _, err := storage.Scrub(disks, true); err != nil { // sweep the debris
		log.Fatal(err)
	}
	fmt.Println("scrub passed: committed checkpoint intact, torn epoch swept")

	// Second run: a fresh cluster over the same directory restarts from
	// whatever checkpoint committed, verifying every served file
	// against its manifest, and finishes the computation.
	memory := panda.NewLayout("memory", []int{2, 2})
	diskL := panda.NewLayout("disk", []int{ioNodes})
	state, err := panda.NewArray("state", []int{32, 32}, 8,
		memory, []panda.Distribution{panda.BLOCK, panda.BLOCK},
		diskL, []panda.Distribution{panda.BLOCK, panda.NONE})
	if err != nil {
		log.Fatal(err)
	}
	sim := panda.NewGroup("sim")
	sim.Include(state)

	cluster, err := panda.NewCluster(panda.Config{
		ComputeNodes: computeNodes, IONodes: ioNodes, Dir: dir,
		VerifyOnRestart: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	loadedStep := make([]int, computeNodes)
	ok := true
	gate := make(chan struct{}, 1)
	gate <- struct{}{}
	if err := cluster.Run(func(n *panda.Node) error {
		buf := make([]byte, n.ChunkBytes(state))
		if err := n.Bind(state, buf); err != nil {
			return err
		}
		if err := n.Restart(sim); err != nil {
			return err
		}
		// The restarted state must be SOME checkpointed step — never a
		// mix of two. Find which one, then finish the run from there.
		loaded := -1
		for s := 0; s <= totalSteps; s++ {
			if string(buf) == string(traj[n.Rank()][s]) {
				loaded = s
				break
			}
		}
		if loaded < 0 {
			return fmt.Errorf("node %d restarted into a state matching no checkpoint", n.Rank())
		}
		for s := loaded + 1; s <= totalSteps; s++ {
			evolve(buf)
		}
		<-gate
		loadedStep[n.Rank()] = loaded
		if string(buf) != string(traj[n.Rank()][totalSteps]) {
			ok = false
		}
		gate <- struct{}{}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	for _, s := range loadedStep[1:] {
		if s != loadedStep[0] {
			log.Fatalf("nodes restarted from different steps %v: a torn checkpoint leaked", loadedStep)
		}
	}
	if !ok {
		log.Fatal("restarted computation diverged from the uninterrupted reference")
	}
	fmt.Printf("restarted from the step-%d checkpoint and finished steps %d..%d\n",
		loadedStep[0], loadedStep[0]+1, totalSteps)
	fmt.Println("verified: state matches an uninterrupted run on every compute node")
}
