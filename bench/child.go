package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"panda"
	"panda/internal/storage"
)

// A child is one fresh process measuring one workload: it brings the
// system up in its own process, warms it, makes a count pass with no
// reference ops, runs a fixed number of timed iterations, each op
// followed at once by the reference op, then shuts down and scrubs. The
// parent runs many children one after another because about 7 % of the
// spread in throughput is between processes and does not average out
// inside one.

// opTimeout bounds every collective; an op that exceeds it is a failed
// op, not a hung child.
const opTimeout = 10 * time.Second

// countPairs is the number of write+read pairs in the count pass.
const countPairs = 4

// pageStride is how far apart the per-generation stamps sit in a
// buffer: one per page is enough to tell a stale read from a fresh one
// while every other byte still checks placement.
const pageStride = 4096

type opKind int

const (
	opWrite opKind = iota + 1
	opRead
)

func (k opKind) String() string {
	if k == opWrite {
		return "write"
	}
	return "read"
}

// step is one barrier-to-barrier phase: what each of the two parties
// does in it, and whether it is timed and followed by the reference op.
type step struct {
	kinds [2]opKind
	timed bool
}

// phase is the record of one timed step, in nanoseconds. All parties
// leave a barrier together and the clock of a kind stops when the last
// party doing it returns; the reference op of each kind done runs right
// after. W and RefW, or R and RefR, are 0 when no party did that kind.
type phase struct {
	W    int64 `json:"w,omitempty"`
	R    int64 `json:"r,omitempty"`
	RefW int64 `json:"ref_w,omitempty"`
	RefR int64 `json:"ref_r,omitempty"`
}

// countPass is what the count pass cost the whole process.
type countPass struct {
	Ops        int     `json:"ops"`
	UserBytes  int64   `json:"user_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	IOBytes    int64   `json:"io_bytes"`
	Syscalls   int64   `json:"syscalls"`
	CPUNs      int64   `json:"cpu_ns"`
	Msgs       float64 `json:"msgs"`    // daemon counter delta, spans-on children only
	PackNs     float64 `json:"pack_ns"` // daemon counter delta, spans-on children only
}

// childResult is the one JSON line a child prints.
type childResult struct {
	Workload    string    `json:"workload"`
	SetupS      float64   `json:"setup_s"`
	Phases      []phase   `json:"phases"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	Incorrect   string    `json:"incorrect,omitempty"` // a read that did not verify, or an unclean scrub
	Err         string    `json:"err,omitempty"`
	Count       countPass `json:"count"`
	StoredBytes int64     `json:"stored_bytes"`
	LiveBytes   int64     `json:"live_bytes"`
	Spans       []span    `json:"spans,omitempty"`
}

var (
	errAborted  = errors.New("another party failed")
	errMismatch = errors.New("read back bytes differ from the bytes written")
)

// party is one compute node's side of the workload: its ops and the
// buffer they move.
type party struct {
	session int // ops of one session are one collective
	write   func() error
	read    func() error
	buf     []byte // bound to the array
	want    []byte // what buf must hold after a read
	gen     uint64
}

// fill gives the party a buffer of n seeded bytes.
func (p *party) fill(n int64, seed int64) {
	p.buf = make([]byte, n)
	p.want = make([]byte, n)
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := 0; i+8 <= len(p.want); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(p.want[i:], x)
	}
}

// stamp makes the next write's content differ from every earlier one.
func (p *party) stamp() {
	p.gen++
	for i := 0; i+8 <= len(p.want); i += pageStride {
		binary.LittleEndian.PutUint64(p.want[i:], p.gen)
	}
	copy(p.buf, p.want)
}

type child struct {
	def     *workloadDef
	seed    int64
	warm    int
	iters   int
	dir     string // this child's own directory, removed on exit
	diskDir string // the program's data, under dir
	t0      time.Time
	rec     *recorder
	ref     *refPath
	bar     *barrier
	parties [2]*party
	sched   [][]step
	info    func() (map[string]any, error) // daemon metrics, nil in-process

	// Written only by the last party to reach a barrier.
	root, opSpan, opID int
	tRel               time.Time
	ends               [2]time.Time
	before             costs
	infoBefore         map[string]any

	mu     sync.Mutex
	failed [2]bool // by session: a failure ends the child, so each fails once at most
	res    childResult
}

// runChild measures one workload in this process and returns what it
// saw. The data directory is gone when it returns.
func runChild(def *workloadDef, seed int64, warm, iters int, dir string, t0 time.Time, spans bool) (res childResult) {
	c := &child{def: def, seed: seed, warm: warm, iters: iters, dir: dir,
		diskDir: filepath.Join(dir, "d"), t0: t0, bar: newBarrier(2)}
	c.res.Workload = def.name
	c.res.LiveBytes = def.liveBytes(warm + iters + countPairs)
	c.sched = c.schedule()
	if spans {
		c.rec = newRecorder()
	}
	defer func() {
		if r := recover(); r != nil {
			c.setErr(fmt.Errorf("panic: %v", r))
		}
		os.RemoveAll(dir)
		c.res.Spans = c.rec.snapshot()
		res = c.res
	}()
	if err := os.MkdirAll(c.diskDir, 0o755); err != nil {
		c.setErr(err)
		return
	}
	c.root = c.rec.begin("panda", "child", 0, 0)
	ref, err := newRefPath(dir, int(def.opBytes))
	if err != nil {
		c.setErr(err)
		return
	}
	c.ref = ref
	defer ref.Close()
	disks, err := def.run(c)
	if err != nil {
		c.setErr(err)
	}
	c.rec.end(c.root)
	if disks == nil {
		return
	}
	sp := c.rec.begin("storage", "scrub", c.root, 0)
	rep, err := storage.Scrub(disks, false)
	c.rec.end(sp)
	switch {
	case err != nil:
		c.setErr(fmt.Errorf("scrub: %w", err))
	case !rep.OK():
		c.setIncorrect(fmt.Sprintf("scrub unclean: %+v", rep.Issues))
	}
	c.res.StoredBytes, err = storedBytes(c.diskDir)
	if err != nil {
		c.setErr(err)
	}
	return
}

func (c *child) setErr(err error) {
	c.mu.Lock()
	if c.res.Err == "" {
		c.res.Err = err.Error()
	}
	c.mu.Unlock()
}

func (c *child) setIncorrect(what string) {
	c.mu.Lock()
	if c.res.Incorrect == "" {
		c.res.Incorrect = what
	}
	c.mu.Unlock()
}

// fail records that party p's op failed and releases the other party.
// The two parties of one session fail the same collective once.
func (c *child) fail(p int, err error) {
	c.mu.Lock()
	if session := c.parties[p].session; !c.failed[session] {
		c.failed[session] = true
		c.res.Failed++
	}
	c.mu.Unlock()
	if errors.Is(err, errMismatch) {
		c.setIncorrect(err.Error())
	}
	c.setErr(fmt.Errorf("op %d: %w", c.opID, err))
	c.bar.abort()
}

// schedule lays out every step the parties take, in three sections:
// warm-up, count pass, timed iterations. The count pass comes before the
// timed iterations so that it warms the system too and set-up ends
// after it. Which tenant writes first in an iteration of a two-session
// workload follows the seed.
func (c *child) schedule() [][]step {
	rng := rand.New(rand.NewSource(c.seed))
	ww := [2]opKind{opWrite, opWrite}
	pair := func(timed bool) []step {
		first := [2]opKind{opWrite, opRead}
		second := [2]opKind{opRead, opWrite}
		if !c.def.twoSessions {
			first, second = ww, [2]opKind{opRead, opRead}
		} else if rng.Intn(2) == 1 {
			first, second = second, first
		}
		return []step{{first, timed}, {second, timed}}
	}
	section := func(n int, timed bool) []step {
		var s []step
		for i := 0; i < n; i++ {
			s = append(s, pair(timed)...)
		}
		return s
	}
	warm := section(c.warm, false)
	if c.def.twoSessions {
		// Each tenant needs something to read before the first mixed step.
		warm = append([]step{{ww, false}}, warm...)
	}
	return [][]step{warm, section(countPairs, false), section(c.iters, true)}
}

// partyMain is what compute node p runs from bring-up to the last timed
// iteration.
func (c *child) partyMain(p int) error {
	markers := []func() bool{nil, c.countBegin, c.countEnd}
	for i, steps := range c.sched {
		if markers[i] != nil && !c.bar.wait(markers[i]) {
			return errAborted
		}
		for _, st := range steps {
			if err := c.step(p, st); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *child) countBegin() bool {
	var err error
	if c.rec != nil && c.info != nil {
		if c.infoBefore, err = c.info(); err != nil {
			c.setErr(err)
			return false
		}
	}
	if c.before, err = readCosts(); err != nil {
		c.setErr(err)
		return false
	}
	return true
}

func (c *child) countEnd() bool {
	after, err := readCosts()
	if err != nil {
		c.setErr(err)
		return false
	}
	ops := countPairs * 2 * c.def.opsPerStep()
	io := after.io.sub(c.before.io)
	c.res.Count = countPass{
		Ops:        ops,
		UserBytes:  int64(ops) * c.def.opBytes,
		Mallocs:    after.mallocs - c.before.mallocs,
		AllocBytes: after.allocBytes - c.before.allocBytes,
		IOBytes:    io.bytes(),
		Syscalls:   io.syscalls(),
		CPUNs:      int64(after.cpu - c.before.cpu),
	}
	if c.infoBefore != nil {
		m, err := c.info()
		if err != nil {
			c.setErr(err)
			return false
		}
		c.res.Count.Msgs = counter(m, "msgs_sent") - counter(c.infoBefore, "msgs_sent")
		c.res.Count.PackNs = counter(m, "pack_ns") - counter(c.infoBefore, "pack_ns")
	}
	// Set-up ends here: process start to the last fixed warm-up op.
	c.res.SetupS = time.Since(c.t0).Seconds()
	return true
}

func counter(m map[string]any, name string) float64 {
	v, _ := m[name].(float64)
	return v
}

// step runs party p's op of one step between two barriers.
func (c *child) step(p int, st step) error {
	pt := c.parties[p]
	kind := st.kinds[p]
	if kind == opWrite {
		pt.stamp()
	} else {
		clear(pt.buf)
	}
	if !c.bar.wait(c.beginStep) {
		return errAborted
	}
	sp := c.rec.begin(fmt.Sprintf("node%d", p), kind.String(), c.opSpan, c.opID)
	var err error
	if kind == opWrite {
		err = pt.write()
	} else {
		err = pt.read()
	}
	c.ends[p] = time.Now()
	c.rec.end(sp)
	if err == nil && kind == opRead && !bytes.Equal(pt.buf, pt.want) {
		err = errMismatch
	}
	if err != nil {
		c.fail(p, err)
		return err
	}
	if !c.bar.wait(func() bool { return c.endStep(st) }) {
		return errAborted
	}
	return nil
}

func (c *child) beginStep() bool {
	c.res.Attempted += c.def.opsPerStep()
	c.opID++
	c.opSpan = c.rec.begin("panda", "op", c.root, c.opID)
	c.tRel = time.Now()
	return true
}

func (c *child) endStep(st step) bool {
	c.rec.end(c.opSpan)
	if !st.timed {
		return true
	}
	var ph phase
	for p, kind := range st.kinds {
		d := int64(c.ends[p].Sub(c.tRel))
		if kind == opWrite {
			ph.W = max(ph.W, d)
		} else {
			ph.R = max(ph.R, d)
		}
	}
	var err error
	if ph.W > 0 {
		ph.RefW, err = c.refOp("ref_write", c.ref.write)
	}
	if ph.R > 0 && err == nil {
		ph.RefR, err = c.refOp("ref_read", c.ref.read)
	}
	if err != nil {
		c.setErr(err)
		return false
	}
	c.res.Phases = append(c.res.Phases, ph)
	return true
}

// refOp runs one direction of the reference op on the op's user bytes.
func (c *child) refOp(name string, op func(n int) (time.Duration, error)) (int64, error) {
	sp := c.rec.begin("ref", name, c.root, c.opID)
	defer c.rec.end(sp)
	d, err := op(int(c.def.opBytes))
	return int64(d), err
}

// call puts a span of the panda track around one public call.
func (c *child) call(name string, call func() error) error {
	sp := c.rec.begin("panda", name, c.root, 0)
	defer c.rec.end(sp)
	return call()
}

// storedBytes sums the files under the program's data dir, leaving out
// the daemon's event log.
func storedBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == "events.jsonl" {
			return err
		}
		st, err := d.Info()
		if err != nil {
			return err
		}
		total += st.Size()
		return nil
	})
	return total, err
}

// osDisks opens the I/O nodes' directories for the scrub.
func osDisks(dirs []string) ([]storage.Disk, error) {
	disks := make([]storage.Disk, len(dirs))
	for i, dir := range dirs {
		d, err := storage.NewOSDisk(dir)
		if err != nil {
			return nil, err
		}
		disks[i] = d
	}
	return disks, nil
}

// bindParty gives party p its buffer for array a on node n.
func (c *child) bindParty(p int, n *panda.Node, a *panda.Array) error {
	pt := c.parties[p]
	pt.fill(n.ChunkBytes(a), c.seed+int64(p))
	return n.Bind(a, pt.buf)
}
