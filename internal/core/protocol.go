package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"panda/internal/array"
	"panda/internal/bufpool"
	"panda/internal/mpi"
)

// Wire protocol. Every Panda message is one mpi message whose payload
// starts with a one-byte message type. Data-bearing messages append the
// raw sub-chunk bytes after the header so no re-encoding of array data
// ever happens.
//
// Tags separate traffic by direction AND by operation sequence number.
// The sequence matters on transports that only guarantee ordering per
// connection pair (TCP, real MPI): without it, the Complete for
// operation N relayed by the master client can be overtaken by
// operation N+1's sub-chunk traffic arriving from a server on a
// different connection, and a client would absorb N+1's data into N's
// buffers. Tagging every message with its operation's sequence makes
// the receive matcher reorder such stragglers. Every node counts
// operations locally — clients per collective call, servers per
// request handled — so the counters agree without extra traffic.
//
//	tagToServer(seq) — sub-chunk data replies (clients → server) and
//	              abort broadcasts (master server → servers).
//	tagToClient(seq) — sub-chunk requests (server → clients, writes),
//	              sub-chunk data (server → clients, reads), Complete
//	              (master server → master client → clients).
//	tagDoneFor(seq) — Done reports (servers → master server).
//	tagControl   — OpRequest (master client → master server, and the
//	              forwarded copy to the other servers) and Shutdown.
//	              Fixed rather than sequenced: requests carry an
//	              explicit Seq field, so a server whose local count
//	              drifted (it never saw a lost operation) adopts the
//	              master's numbering instead of deadlocking on a tag it
//	              will never receive.
//
// The strides keep the three sequenced families and the fixed tags
// (tagControl, tagAppDone) disjoint for every sequence number.
//
// The tag is the operation's only identity on the wire: every receive
// screens by tag match, the routers (schedRouter.route,
// clientRouter.run) by tagOpSeq. The sequence space is sized so it fits:
// seq = session ID << sessionSeqBits | op index, wire tag = tag+1 as a
// u32 (0 marks a hub control frame), so the largest, tagDoneFor(maxSeq)+1,
// is 2^32-3. Client.admit refuses the collective whose seq would leave
// its window — the next one is the next session's.
const (
	// sessionSeqBits sizes each session's operation-sequence window: a
	// session may run up to 1<<sessionSeqBits collectives. Sequence
	// bases are monotonic and never reused, so a retired session's late
	// frames can never alias a live operation.
	sessionSeqBits = 13
	// maxSessionID bounds session IDs so that maxSeq's tags fit the wire.
	maxSessionID = 1<<15 - 1
	// maxSeq is the last sequence number an operation may carry.
	maxSeq = (maxSessionID+1)<<sessionSeqBits - 1
)

// SessionIDOfSeq recovers the owning session's ID from an operation
// sequence number (the inverse of SessionInfo.SeqBase). Fixed-shape
// deployments run in the sid-0 window.
func SessionIDOfSeq(seq int) int { return seq >> sessionSeqBits }

func tagToServer(seq int) int { return 10 + 16*seq }

func tagToClient(seq int) int { return 11 + 16*seq }

// tagDoneFor carries server→master-server completion reports for one
// operation. Sequenced so a Done from an abandoned (timed-out)
// operation cannot be mistaken for a Done of the current one.
func tagDoneFor(seq int) int { return 12 + 16*seq }

// tagControl carries OpRequest and Shutdown; see the tag table above.
const tagControl = 14

// tagSchedDone is a node-local loopback: an operation executor reports
// its operation finished by sending a SchedDone frame to its own rank,
// where the router loop — the sole receiver — retires the op and
// dispatches the next. Fixed tag; the frame carries the Seq.
const tagSchedDone = 15

// tagRouterStop is a client-local loopback telling the client's router
// loop to exit once the application is done submitting operations.
const tagRouterStop = 16

// tagOpSeq classifies a tag: for members of the three sequenced
// families it recovers the operation sequence number and the family
// (0 = tagToServer, 1 = tagToClient, 2 = tagDoneFor); for fixed tags it
// reports ok = false. Routers use it to steer frames to per-op state.
func tagOpSeq(tag int) (seq, family int, ok bool) {
	if tag < 10 {
		return 0, 0, false
	}
	family = (tag - 10) % 16
	if family > 2 {
		return 0, 0, false
	}
	return (tag - 10) / 16, family, true
}

// Message types.
const (
	msgOpRequest byte = iota + 1
	msgSubReq
	msgSubData
	msgDone
	msgComplete
	msgShutdown
	msgAbort
	// msgPrepared reports a server's epoch staged and synced (write
	// two-phase commit, server → master server on tagDoneFor).
	msgPrepared
	// msgCommit is the master server's commit order (master server →
	// servers on tagToServer) once every participant is PREPARED and
	// the decision record is durable.
	msgCommit
	// msgCommitted acks a server's rename of its epoch onto the final
	// names (server → master server on tagDoneFor).
	msgCommitted
	// msgSchedDone is the executor→router loopback on tagSchedDone.
	msgSchedDone
	// msgReconfig carries a live reconfiguration of the scheduler and
	// pipeline knobs to a resident server (service deployments): the
	// router adopts the new values for subsequently dispatched
	// operations while in-flight executors keep the snapshot they
	// started with.
	msgReconfig
)

// Operation kinds.
const (
	opWrite byte = iota + 1
	opRead
)

// --- primitive encoders -------------------------------------------------

type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)    { w.b = append(w.b, v) }
func (w *wbuf) u16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *wbuf) str(s string) {
	if len(s) > 0xFFFF {
		panic("core: string too long for wire format")
	}
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}

type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("core: truncated message reading %s at offset %d", what, r.off)
	}
}

func (r *rbuf) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail("u8")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail("u16")
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail("u32")
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *rbuf) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rbuf) str() string {
	n := int(r.u16())
	if r.err != nil || r.off+n > len(r.b) {
		r.fail("string")
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *rbuf) rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.b[r.off:]
}

// --- composite encoders -------------------------------------------------

func (w *wbuf) region(reg array.Region) {
	w.u8(byte(reg.Rank()))
	for d := 0; d < reg.Rank(); d++ {
		w.u32(uint32(reg.Lo[d]))
		w.u32(uint32(reg.Hi[d]))
	}
}

// regionSpace is the scratch a caller hands region for the bounds of
// regions of up to eight dimensions; a longer one is allocated.
type regionSpace [16]int

// region decodes a region whose bounds live in space, which the caller
// owns: the region is good until space is decoded into again. Region
// decode is on the per-piece hot path, and every piece is consumed
// before the next frame is looked at.
func (r *rbuf) region(space *regionSpace) array.Region {
	rank := int(r.u8())
	var lohi []int
	if space != nil && 2*rank <= len(space) {
		lohi = space[:]
	} else {
		lohi = make([]int, 2*rank)
	}
	lo, hi := lohi[:rank:rank], lohi[rank:2*rank:2*rank]
	for d := 0; d < rank; d++ {
		lo[d] = int(r.u32())
		hi[d] = int(r.u32())
	}
	return array.Region{Lo: lo, Hi: hi}
}

func (w *wbuf) schema(s array.Schema) {
	w.u8(byte(len(s.Shape)))
	for _, n := range s.Shape {
		w.u32(uint32(n))
	}
	for _, d := range s.Dist {
		w.u8(byte(d))
	}
	w.u8(byte(len(s.Mesh)))
	for _, m := range s.Mesh {
		w.u32(uint32(m))
	}
}

func (r *rbuf) schema() array.Schema {
	rank := int(r.u8())
	s := array.Schema{
		Shape: make([]int, rank),
		Dist:  make([]array.Dist, rank),
	}
	for d := range s.Shape {
		s.Shape[d] = int(r.u32())
	}
	for d := range s.Dist {
		s.Dist[d] = array.Dist(r.u8())
	}
	if mesh := int(r.u8()); mesh > 0 {
		s.Mesh = make([]int, mesh)
		for i := range s.Mesh {
			s.Mesh[i] = int(r.u32())
		}
	}
	return s
}

// --- messages -----------------------------------------------------------

// opRequest is the "short very-high-level description" the master
// client sends to the master server (paper §2): the operation kind, the
// file-name suffix, and the two schemas of every array. Seq is the
// master client's operation counter; servers adopt it so their tag
// numbering cannot drift from the clients' even when requests are lost.
type opRequest struct {
	Op  byte
	Seq uint32
	// Attempt counts the master client's retries of this operation
	// (first try is 0). Servers accept a request when its (Seq, Attempt)
	// is newer than the last one they served, so a retry of a wedged
	// operation gets through while duplicates are dropped.
	Attempt uint16
	// Round counts replanning rounds within one attempt: when the
	// master server loses a participant mid-write it rebroadcasts the
	// request with Round+1 and the dead servers listed in Deads, and
	// the survivors replan with the dead servers' chunks reassigned.
	Round  uint16
	Suffix string
	// Deads lists server indexes known dead this round, sorted.
	Deads []int
	Specs []ArraySpec
	// Epochs carries, per spec, the committed epoch a read must serve
	// (0 = resolve locally / legacy file). Writes leave it zero.
	Epochs []uint64
	// Tenant names the submitting tenant for the scheduler's weighted
	// fair queueing; empty for legacy/unattributed traffic. Encoded as
	// an optional tail so frames without a tenant stay byte-identical
	// to the pre-scheduler wire format.
	Tenant string
	// Ranks lists the world ranks of the submitting session's members
	// in memory-chunk order: Ranks[i] holds mem chunk i, Ranks[0] is the
	// session leader the Complete goes to. Empty for fixed-shape
	// deployments, where chunk index == client rank. Encoded as a second
	// optional tail (after Tenant) so legacy frames are unchanged.
	Ranks []int
	// MemberEpoch is the membership epoch this operation was dispatched
	// under on elastic deployments (0 = static membership, the legacy
	// meaning). Servers clear their plan caches when it moves, and a
	// drain waits for operations stamped before its fence. Encoded as a
	// third optional tail; when set it forces the earlier tails onto the
	// wire so decode offsets stay unambiguous.
	MemberEpoch uint32
}

func encodeOpRequest(req opRequest) []byte {
	// A pooled buffer, recycled by whoever decodes the frame. One array's
	// request is ~110 bytes; a longer one outgrows the buffer.
	w := wbuf{b: bufpool.GetRaw(256)[:0]}
	w.u8(msgOpRequest)
	w.u8(req.Op)
	w.u32(req.Seq)
	w.u16(req.Attempt)
	w.u16(req.Round)
	w.str(req.Suffix)
	w.u8(byte(len(req.Deads)))
	for _, dead := range req.Deads {
		w.u16(uint16(dead))
	}
	w.u16(uint16(len(req.Specs)))
	for i, s := range req.Specs {
		w.str(s.Name)
		w.u32(uint32(s.ElemSize))
		w.u64(uint64(s.SubchunkBytes))
		w.schema(s.Mem)
		w.schema(s.Disk)
		var epoch uint64
		if i < len(req.Epochs) {
			epoch = req.Epochs[i]
		}
		w.u64(epoch)
	}
	if req.Tenant != "" || len(req.Ranks) > 0 || req.MemberEpoch != 0 {
		w.str(req.Tenant)
	}
	if len(req.Ranks) > 0 || req.MemberEpoch != 0 {
		w.u16(uint16(len(req.Ranks)))
		for _, rk := range req.Ranks {
			w.u32(uint32(rk))
		}
	}
	if req.MemberEpoch != 0 {
		w.u32(req.MemberEpoch)
	}
	return w.b
}

func decodeOpRequest(b []byte) (opRequest, error) {
	r := rbuf{b: b}
	if t := r.u8(); t != msgOpRequest {
		return opRequest{}, fmt.Errorf("core: expected OpRequest, got message type %d", t)
	}
	var req opRequest
	req.Op = r.u8()
	req.Seq = r.u32()
	req.Attempt = r.u16()
	req.Round = r.u16()
	req.Suffix = r.str()
	if ndeads := int(r.u8()); ndeads > 0 {
		req.Deads = make([]int, ndeads)
		for i := range req.Deads {
			req.Deads[i] = int(r.u16())
		}
	}
	n := int(r.u16())
	req.Specs = make([]ArraySpec, n)
	req.Epochs = make([]uint64, n)
	for i := range req.Specs {
		req.Specs[i].Name = r.str()
		req.Specs[i].ElemSize = int(r.u32())
		req.Specs[i].SubchunkBytes = int64(r.u64())
		req.Specs[i].Mem = r.schema()
		req.Specs[i].Disk = r.schema()
		req.Epochs[i] = r.u64()
	}
	if r.err == nil && r.off < len(r.b) {
		req.Tenant = r.str()
	}
	if r.err == nil && r.off < len(r.b) {
		if nr := int(r.u16()); nr > 0 {
			req.Ranks = make([]int, nr)
			for i := range req.Ranks {
				req.Ranks[i] = int(r.u32())
			}
		}
	}
	if r.err == nil && r.off < len(r.b) {
		req.MemberEpoch = r.u32()
	}
	if r.err != nil {
		return opRequest{}, r.err
	}
	return req, nil
}

// subReq asks one client for the piece of a sub-chunk it holds.
type subReq struct {
	ArrayIdx int
	ReqID    uint32
	Region   array.Region // already intersected with the client's chunk
}

// encodeSubReq builds a pull request in a pooled buffer, which the
// client recycles once it has decoded it.
func encodeSubReq(q subReq) []byte {
	w := wbuf{b: bufpool.GetRaw(8 + 8*q.Region.Rank())[:0]}
	w.u8(msgSubReq)
	w.u16(uint16(q.ArrayIdx))
	w.u32(q.ReqID)
	w.region(q.Region)
	return w.b
}

// decodeSubReq decodes a pull request; its region lives in space (see
// rbuf.region).
func decodeSubReq(r *rbuf, space *regionSpace) (subReq, error) {
	var q subReq
	q.ArrayIdx = int(r.u16())
	q.ReqID = r.u32()
	q.Region = r.region(space)
	return q, r.err
}

// subData carries one piece of array data, client→server on writes and
// server→client on reads. Payload bytes follow the header directly.
type subData struct {
	ArrayIdx int
	ReqID    uint32
	Region   array.Region
	Payload  []byte
}

// maxSubchunkBytes is the largest sub-chunk limit a deployment or an
// array may set: a data frame — at most one sub-chunk behind a header
// of 8 bytes plus a region of at most 255 dimensions — must fit the
// transport's frame.
const maxSubchunkBytes = mpi.MaxFrameBytes - (8 + 8*255)

// encodeSubDataHeader builds only the header of a data frame, in a
// pooled buffer with capacity for room payload bytes behind it. A
// borrowed payload (room 0) travels beside the header through
// mpi.SendSegments and the caller recycles the header once the send
// returns; a strided piece is packed into the room (packedFrame) and
// the whole buffer goes to the transport. Either way receivers see one
// frame: the header followed by the payload.
func encodeSubDataHeader(d subData, room int) []byte {
	w := wbuf{b: bufpool.GetRaw(8 + 8*d.Region.Rank() + room)[:0]}
	w.u8(msgSubData)
	w.u16(uint16(d.ArrayIdx))
	w.u32(d.ReqID)
	w.region(d.Region)
	return w.b
}

// packedFrame builds the data frame of a piece that is not contiguous
// in src (a buffer holding srcR): the header goes into a pooled buffer
// sized for the whole frame and the piece is gathered straight behind
// it, so a strided byte is copied once between the buffer it lives in
// and the frame that carries it. The caller owns the frame and sends it
// with SendOwned.
func packedFrame(d subData, src []byte, srcR array.Region, elemSize int) []byte {
	n := int(d.Region.NumElems()) * elemSize
	hdr := encodeSubDataHeader(d, n)
	frame := hdr[:len(hdr)+n]
	array.CopyRegion(frame[len(hdr):], d.Region, src, srcR, d.Region, elemSize)
	return frame
}

// decodeSubData decodes a data frame's header; its region lives in
// space (see rbuf.region) and its payload is a view of the frame.
func decodeSubData(r *rbuf, space *regionSpace) (subData, error) {
	var d subData
	d.ArrayIdx = int(r.u16())
	d.ReqID = r.u32()
	d.Region = r.region(space)
	d.Payload = r.rest()
	return d, r.err
}

// encodeSchedDone builds the executor→router completion loopback:
// which operation finished, and whether the failure it hit is fatal to
// the whole server (a crashed storage stack) rather than to the op.
func encodeSchedDone(seq uint32, fatal bool) []byte {
	w := wbuf{b: bufpool.GetRaw(6)[:0]} // the router recycles it
	w.u8(msgSchedDone)
	w.u32(seq)
	f := byte(0)
	if fatal {
		f = 1
	}
	w.u8(f)
	return w.b
}

func decodeSchedDone(r *rbuf) (seq uint32, fatal bool, err error) {
	seq = r.u32()
	fatal = r.u8() != 0
	return seq, fatal, r.err
}

// statusFrame is the body shared by Done, Prepared, Commit, Committed,
// Complete and Abort: which attempt and replanning round of the
// operation the frame belongs to — so stragglers from an abandoned
// attempt or a superseded round are filtered, not mistaken for current
// traffic — plus a typed outcome.
type statusFrame struct {
	Attempt uint16
	Round   uint16
	Err     error
}

// encodeStatus builds a status-bearing frame: a one-byte code
// (statusOK, statusFailed, statusTimeout, statusPeerLost, ...)
// classifies the outcome so typed errors survive the wire, then the
// human-readable detail.
func encodeStatus(typ byte, attempt, round uint16, opErr error) []byte {
	msg := ""
	if opErr != nil {
		msg = opErr.Error()
	}
	w := wbuf{b: make([]byte, 0, 8+len(msg))}
	w.u8(typ)
	w.u16(attempt)
	w.u16(round)
	w.u8(statusCode(opErr))
	w.str(msg)
	return w.b
}

// decodeStatus returns the attempt/round echo and operation outcome
// carried by a status frame (nil Err for success). A decode failure is
// reported separately.
func decodeStatus(r *rbuf) (statusFrame, error) {
	var f statusFrame
	f.Attempt = r.u16()
	f.Round = r.u16()
	code := r.u8()
	msg := r.str()
	if r.err != nil {
		return statusFrame{}, r.err
	}
	f.Err = statusError(code, msg)
	return f, nil
}

func encodeShutdown() []byte { return []byte{msgShutdown} }

// Reconfig is a live update of the knobs a resident server may change
// without restarting: the scheduler's shape and the write pipeline
// depth. (Read-ahead is not among them: a resident server overlaps
// operations, so its reads go through the shared disk activity.)
// Values follow SchedConfig/Config zero-value conventions (0 Quantum =
// 1 MiB, 0 QueueDepth = 16, ...), except Sched.MaxInflight, where 0
// means "keep the current value" — a reconfig must never silently
// serialize a running service onto a write window of zero.
type Reconfig struct {
	Sched    SchedConfig
	Pipeline int
}

// reconfigure installs rc; it is the one place a Reconfig is applied
// (the service's own view, and every router's between operations).
func (c *Config) reconfigure(rc Reconfig) {
	if rc.Sched.MaxInflight <= 0 {
		rc.Sched.MaxInflight = c.Sched.MaxInflight
	}
	c.Sched, c.Pipeline = rc.Sched, rc.Pipeline
}

func encodeReconfig(rc Reconfig) []byte {
	var w wbuf
	w.u8(msgReconfig)
	w.u32(uint32(rc.Sched.MaxInflight))
	w.u32(uint32(rc.Sched.QueueDepth))
	w.u64(uint64(rc.Sched.Quantum))
	w.u32(uint32(rc.Pipeline))
	names := make([]string, 0, len(rc.Sched.Weights))
	for t := range rc.Sched.Weights {
		names = append(names, t)
	}
	sort.Strings(names)
	w.u16(uint16(len(names)))
	for _, t := range names {
		w.str(t)
		w.u32(uint32(rc.Sched.Weights[t]))
	}
	return w.b
}

func decodeReconfig(b []byte) (Reconfig, error) {
	r := rbuf{b: b}
	if t := r.u8(); t != msgReconfig {
		return Reconfig{}, fmt.Errorf("core: expected Reconfig, got message type %d", t)
	}
	var rc Reconfig
	rc.Sched.MaxInflight = int(r.u32())
	rc.Sched.QueueDepth = int(r.u32())
	rc.Sched.Quantum = int64(r.u64())
	rc.Pipeline = int(r.u32())
	if n := int(r.u16()); n > 0 {
		rc.Sched.Weights = make(map[string]int, n)
		for i := 0; i < n; i++ {
			t := r.str()
			rc.Sched.Weights[t] = int(r.u32())
		}
	}
	if r.err != nil {
		return Reconfig{}, r.err
	}
	return rc, nil
}

// EncodeSpec serializes an ArraySpec in the wire schema format — the
// opaque byte form the storage catalog records, so a restarted daemon
// (or a remote session) reconstructs the exact schema the array was
// created under.
func EncodeSpec(s ArraySpec) []byte {
	var w wbuf
	w.str(s.Name)
	w.u32(uint32(s.ElemSize))
	w.u64(uint64(s.SubchunkBytes))
	w.schema(s.Mem)
	w.schema(s.Disk)
	return w.b
}

// DecodeSpec is the inverse of EncodeSpec.
func DecodeSpec(b []byte) (ArraySpec, error) {
	r := rbuf{b: b}
	var s ArraySpec
	s.Name = r.str()
	s.ElemSize = int(r.u32())
	s.SubchunkBytes = int64(r.u64())
	s.Mem = r.schema()
	s.Disk = r.schema()
	if r.err != nil {
		return ArraySpec{}, r.err
	}
	return s, nil
}

// SpecFingerprint is the schema fingerprint sessions are checked
// against: element size plus both decompositions, the same CRC32C the
// plan cache keys on.
func SpecFingerprint(s ArraySpec) uint32 { return planFingerprint(s) }

// encodeAbort builds the master server's abort broadcast: the typed
// status tells a stuck server why the operation is being abandoned.
func encodeAbort(attempt, round uint16, opErr error) []byte {
	return encodeStatus(msgAbort, attempt, round, opErr)
}
