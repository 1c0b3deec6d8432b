package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"panda/internal/array"
	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/obs"
)

// One collective at a time through core.RunWith — two clients, two
// servers, in-process transport, OSDisk — with a span decorator around
// every mpi.Comm and storage.Disk, so a collective's time splits into
// sending, waiting, disk and the rest (plan, pack, CRC, codec) on each
// side. The deployment runs the one-op-at-a-time server loop, where
// every node is a single goroutine and its spans cannot overlap.

// collectiveCfg picks the collective measured.
type collectiveCfg struct {
	reorg    bool // *,*,BLOCK memory to BLOCK,*,* disk; else natural chunking
	plain    bool // core.Config.PlainWrites: no epoch, manifest or commit
	decorate bool // span decorators on; else the bare endpoints and disks
}

const (
	collectiveWarm = 2
	collectiveReps = 5
)

// collectiveRun is what one deployment's ops measured.
type collectiveRun struct {
	writeMs, readMs []float64 // per repetition
	roots           []int     // root span of every timed op, writes and reads in turn
	spans           []span
	msgsSent        int64 // the deployment's own counters, decorated or not
	framesCoalesced int64
}

func collectiveSpec(reorg bool) (core.ArraySpec, error) {
	if !reorg {
		s, err := array.NewSchema([]int{2048, 1024}, []array.Dist{array.Block, array.Star}, []int{2})
		return core.ArraySpec{Name: "state", ElemSize: 8, Mem: s, Disk: s}, err
	}
	shape := []int{512, 1024, 8}
	mem, err := array.NewSchema(shape, []array.Dist{array.Star, array.Star, array.Block}, []int{2})
	if err != nil {
		return core.ArraySpec{}, err
	}
	disk, err := array.NewSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{2})
	return core.ArraySpec{Name: "grid", ElemSize: 4, Mem: mem, Disk: disk}, err
}

// runCollective brings one deployment up under dir and runs
// collectiveWarm untimed and reps timed checkpoint/restart pairs.
func runCollective(dir string, cc collectiveCfg, reps int) (*collectiveRun, error) {
	const clients, servers = 2, 2
	spec, err := collectiveSpec(cc.reorg)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	cfg := core.Config{NumClients: clients, NumServers: servers, OpTimeout: opTimeout, PlainWrites: cc.plain, Metrics: reg}

	var rec *recorder
	if cc.decorate {
		rec = newRecorder()
	}
	world := mpi.NewWorld(clients + servers)
	comms := make([]mpi.Comm, clients+servers)
	lanes := make([]*lane, clients+servers)
	for r := range comms {
		comms[r] = world.Comm(r)
		track := fmt.Sprintf("client%d", r)
		if r >= clients {
			track = fmt.Sprintf("server%d", r-clients)
		}
		lanes[r] = &lane{rec: rec, track: track}
		if cc.decorate {
			comms[r] = &spanComm{inner: comms[r], lane: lanes[r]}
		}
	}
	disks, err := osDisks(ionDirs(dir))
	if err != nil {
		return nil, err
	}
	if cc.decorate {
		for i := range disks {
			disks[i] = &spanDisk{inner: disks[i], lane: lanes[clients+i]}
		}
	}

	run := &collectiveRun{}
	bar := newBarrier(clients)
	var (
		opID, root int
		tRel       time.Time
		ends       [clients]time.Time
	)
	begin := func() bool {
		opID++
		root = rec.begin("collective", "op", 0, opID)
		for i := 0; i < servers; i++ {
			lanes[clients+i].enter(rec.begin(lanes[clients+i].track, "serve", root, opID), opID)
		}
		tRel = time.Now()
		return true
	}
	end := func(kind opKind, timed bool) bool {
		for i := 0; i < servers; i++ {
			l := lanes[clients+i]
			rec.end(int(l.parent.Load()))
			l.enter(0, 0) // waits between ops belong to none
		}
		rec.end(root)
		if !timed {
			return true
		}
		last := ends[0]
		if ends[1].After(last) {
			last = ends[1]
		}
		d := ms(last.Sub(tRel))
		if kind == opWrite {
			run.writeMs = append(run.writeMs, d)
		} else {
			run.readMs = append(run.readMs, d)
		}
		run.roots = append(run.roots, root)
		return true
	}

	app := func(cl *core.Client) error {
		r := cl.Rank()
		pt := &party{}
		pt.fill(spec.MemChunkBytes(r), int64(r)+1)
		specs, bufs := []core.ArraySpec{spec}, [][]byte{pt.buf}
		for rep := 0; rep < collectiveWarm+reps; rep++ {
			for _, kind := range []opKind{opWrite, opRead} {
				if kind == opWrite {
					pt.stamp()
				} else {
					clear(pt.buf)
				}
				if !bar.wait(begin) {
					return errAborted
				}
				sp := rec.begin(lanes[r].track, kind.String(), root, opID)
				lanes[r].enter(sp, opID)
				var err error
				if kind == opWrite {
					err = cl.WriteArrays(".ckpt", specs, bufs)
				} else {
					err = cl.ReadArrays(".ckpt", specs, bufs)
				}
				ends[r] = time.Now()
				rec.end(sp)
				lanes[r].enter(0, 0)
				if err == nil && kind == opRead && !bytes.Equal(pt.buf, pt.want) {
					err = errMismatch
				}
				if err != nil {
					bar.abort()
					return err
				}
				if !bar.wait(func() bool { return end(kind, rep >= collectiveWarm) }) {
					return errAborted
				}
			}
		}
		return nil
	}
	if _, err := core.RunWith(cfg, comms, disks, app); err != nil {
		return nil, err
	}
	run.spans = rec.snapshot()
	run.msgsSent = reg.Counter("msgs_sent").Value()
	run.framesCoalesced = reg.Counter("frames_coalesced").Value()
	return run, nil
}

// breakdownKeys are the per-collective metrics, by suffix.
var breakdownKeys = []string{"op_ms", "client_send_ms", "client_recv_wait_ms", "client_self_ms",
	"server_send_ms", "server_recv_wait_ms", "server_disk_ms", "server_self_ms",
	"msgs", "disk_calls", "disk_syncs", "disk_lists"}

// breakdown splits the collective under span root by side and by what
// the side was doing. Times are per node: the mean over the clients or
// over the servers. A node's spans are those on its track that overlap
// its op (or serve) span, clipped to it; its self time is the rest.
func breakdown(spans []span, root int) map[string]float64 {
	out := map[string]float64{}
	for _, key := range breakdownKeys {
		out[key] = 0
	}
	byTrack := map[string][]span{}
	nodes := map[string]float64{} // clients and servers seen
	for _, s := range spans {
		byTrack[s.Track] = append(byTrack[s.Track], s)
		if s.ID == root {
			out["op_ms"] = float64(s.End-s.Start) / 1e6
		}
	}
	for _, s := range spans {
		if s.Parent != root {
			continue
		}
		side := "client"
		if s.Name == "serve" {
			side = "server"
		}
		nodes[side]++
		var children []interval
		for _, c := range byTrack[s.Track] {
			if c.ID == s.ID || c.End <= s.Start || c.Start >= s.End {
				continue
			}
			children = append(children, c.interval())
			d := float64(min(c.End, s.End)-max(c.Start, s.Start)) / 1e6
			switch {
			case c.Name == spanSend:
				out[side+"_send_ms"] += d
				out["msgs"]++
			case c.Name == spanRecv:
				out[side+"_recv_wait_ms"] += d
			case strings.HasPrefix(c.Name, "disk."):
				out["server_disk_ms"] += d
				out["disk_calls"]++
				switch c.Name {
				case "disk.sync":
					out["disk_syncs"]++
				case "disk.list":
					out["disk_lists"]++
				}
			}
		}
		out[side+"_self_ms"] += float64(selfTime(s.interval(), children)) / 1e6
	}
	for key := range out {
		if side, _, ok := strings.Cut(key, "_"); ok && strings.HasSuffix(key, "_ms") && nodes[side] > 0 {
			out[key] /= nodes[side]
		}
	}
	return out
}

// collectiveProbes measures the natural and the reorganising collective
// decorated, then the natural one bare, decorated and with plain writes
// in turn, under dir. It returns the first decorated runs' spans by
// scenario.
func collectiveProbes(dir string, out map[string]float64) (map[string][]span, error) {
	groups := map[string][]span{}
	for _, scenario := range []string{"natural", "reorg"} {
		run, err := runCollective(filepath.Join(dir, scenario), collectiveCfg{reorg: scenario == "reorg", decorate: true}, collectiveReps)
		if err != nil {
			return nil, fmt.Errorf("%s collective: %w", scenario, err)
		}
		groups["collective."+scenario] = run.spans
		perKey := map[string][]float64{}
		for i, root := range run.roots {
			kind := []string{"write", "read"}[i%2]
			for key, v := range breakdown(run.spans, root) {
				perKey[kind+"."+key] = append(perKey[kind+"."+key], v)
			}
		}
		for _, kind := range []string{"write", "read"} {
			for _, key := range breakdownKeys {
				if strings.HasPrefix(key, "disk_syncs") || strings.HasPrefix(key, "disk_lists") {
					if scenario != "natural" || kind != "write" {
						continue
					}
				}
				out["core."+scenario+"."+kind+"."+key] = median(perKey[kind+"."+key])
			}
		}
	}
	// Decorated against bare, and committed against plain: deployments of
	// each kind take turns, so a slow spell of the host falls on all.
	var tracedMs, bareMs, bareWriteMs, plainWriteMs []float64
	for round := 0; round < 2; round++ {
		sub := filepath.Join(dir, fmt.Sprintf("round%d", round))
		bare, err := runCollective(filepath.Join(sub, "bare"), collectiveCfg{}, collectiveReps)
		if err != nil {
			return nil, fmt.Errorf("bare collective: %w", err)
		}
		traced, err := runCollective(filepath.Join(sub, "traced"), collectiveCfg{decorate: true}, collectiveReps)
		if err != nil {
			return nil, fmt.Errorf("decorated collective: %w", err)
		}
		plain, err := runCollective(filepath.Join(sub, "plain"), collectiveCfg{plain: true}, collectiveReps)
		if err != nil {
			return nil, fmt.Errorf("plain-writes collective: %w", err)
		}
		for i := range bare.writeMs {
			bareMs = append(bareMs, bare.writeMs[i]+bare.readMs[i])
			tracedMs = append(tracedMs, traced.writeMs[i]+traced.readMs[i])
		}
		bareWriteMs = append(bareWriteMs, bare.writeMs...)
		plainWriteMs = append(plainWriteMs, plain.writeMs...)
	}
	out["core.natural.write.commit_share"] = 1 - median(plainWriteMs)/median(bareWriteMs)
	out["core.trace_overhead_pct"] = 100 * (median(tracedMs)/median(bareMs) - 1)
	return groups, nil
}
