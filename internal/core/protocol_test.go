package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"panda/internal/array"
	"panda/internal/obs"
)

// encodeSubData builds a whole data frame — header plus a copy of the
// payload — as receivers see it after a SendSegments.
func encodeSubData(d subData) []byte {
	return append(encodeSubDataHeader(d, 0), d.Payload...)
}

func TestOpRequestRoundTrip(t *testing.T) {
	req := opRequest{
		Op:     opWrite,
		Suffix: ".t17",
		Specs: []ArraySpec{
			{
				Name:     "temperature",
				ElemSize: 8,
				Mem:      array.MustSchema([]int{512, 512, 512}, []array.Dist{array.Block, array.Block, array.Block}, []int{4, 4, 2}),
				Disk:     array.MustSchema([]int{512, 512, 512}, []array.Dist{array.Block, array.Star, array.Star}, []int{8}),
			},
			{
				Name:     "density",
				ElemSize: 4,
				Mem:      array.MustSchema([]int{256, 256}, []array.Dist{array.Block, array.Star}, []int{8}),
				Disk:     array.MustSchema([]int{256, 256}, []array.Dist{array.Star, array.Star}, nil),
			},
		},
	}
	got, err := decodeOpRequest(encodeOpRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	// The wire format always carries one epoch per spec; a nil Epochs
	// slice encodes as zeros and decodes materialized.
	req.Epochs = make([]uint64, len(req.Specs))
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}
}

func TestSubReqRoundTrip(t *testing.T) {
	q := subReq{ArrayIdx: 3, ReqID: 9999, Region: array.NewRegion([]int{1, 2, 3}, []int{4, 5, 6})}
	b := encodeSubReq(q)
	r := rbuf{b: b}
	if typ := r.u8(); typ != msgSubReq {
		t.Fatalf("type = %d", typ)
	}
	got, err := decodeSubReq(&r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.ArrayIdx != q.ArrayIdx || got.ReqID != q.ReqID || !got.Region.Equal(q.Region) {
		t.Fatalf("got %+v", got)
	}
}

func TestSubDataRoundTrip(t *testing.T) {
	d := subData{
		ArrayIdx: 1,
		ReqID:    42,
		Region:   array.NewRegion([]int{0}, []int{5}),
		Payload:  []byte{9, 8, 7, 6, 5},
	}
	b := encodeSubData(d)
	r := rbuf{b: b}
	if typ := r.u8(); typ != msgSubData {
		t.Fatalf("type = %d", typ)
	}
	got, err := decodeSubData(&r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.ArrayIdx != d.ArrayIdx || got.ReqID != d.ReqID || !got.Region.Equal(d.Region) || !bytes.Equal(got.Payload, d.Payload) {
		t.Fatalf("got %+v", got)
	}
}

func TestStatusRoundTrip(t *testing.T) {
	cases := []error{
		nil,
		errors.New("disk exploded"),
		ErrTimeout,
		ErrPeerLost,
		fmt.Errorf("server 3: %w", ErrTimeout),
		fmt.Errorf("rank 2 gone: %w", ErrPeerLost),
	}
	for _, in := range cases {
		b := encodeStatus(msgComplete, 3, 1, in)
		r := rbuf{b: b}
		if typ := r.u8(); typ != msgComplete {
			t.Fatalf("type = %d", typ)
		}
		frame, err := decodeStatus(&r)
		if err != nil {
			t.Fatal(err)
		}
		if frame.Attempt != 3 || frame.Round != 1 {
			t.Fatalf("attempt/round = %d/%d, want 3/1", frame.Attempt, frame.Round)
		}
		got := frame.Err
		switch {
		case in == nil:
			if got != nil {
				t.Fatalf("nil status decoded as %v", got)
			}
		default:
			if got == nil || got.Error() != in.Error() {
				t.Fatalf("status %v decoded as %v", in, got)
			}
			// Typed sentinels must survive the wire.
			if errors.Is(in, ErrTimeout) != errors.Is(got, ErrTimeout) ||
				errors.Is(in, ErrPeerLost) != errors.Is(got, ErrPeerLost) {
				t.Fatalf("status %v lost its type over the wire: %v", in, got)
			}
		}
	}
}

func TestStatusTruncatedFails(t *testing.T) {
	full := encodeStatus(msgDone, 0, 0, errors.New("boom"))
	for cut := 1; cut < len(full); cut++ {
		r := rbuf{b: full[:cut]}
		r.u8()
		if _, err := decodeStatus(&r); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

func TestDecodeTruncatedFails(t *testing.T) {
	req := opRequest{Op: opRead, Specs: []ArraySpec{{
		Name: "a", ElemSize: 4,
		Mem:  array.MustSchema([]int{4}, []array.Dist{array.Block}, []int{2}),
		Disk: array.MustSchema([]int{4}, []array.Dist{array.Block}, []int{2}),
	}}}
	full := encodeOpRequest(req)
	for cut := 1; cut < len(full); cut++ {
		if _, err := decodeOpRequest(full[:cut]); err == nil {
			// Some prefixes may decode "successfully" only if every
			// field boundary aligns; for OpRequest the trailing spec
			// fields make that impossible.
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

func TestDecodeWrongTypeFails(t *testing.T) {
	if _, err := decodeOpRequest([]byte{msgSubData, 0, 0}); err == nil {
		t.Fatal("wrong type accepted")
	}
}

func TestRegionEncodingProperty(t *testing.T) {
	f := func(lo0, ext0, lo1, ext1 uint16) bool {
		reg := array.NewRegion(
			[]int{int(lo0), int(lo1)},
			[]int{int(lo0) + int(ext0), int(lo1) + int(ext1)},
		)
		var w wbuf
		w.region(reg)
		// Decoded into space the caller owns, and into none.
		var space regionSpace
		r, r2 := rbuf{b: w.b}, rbuf{b: w.b}
		got := r.region(&space)
		return got.Equal(reg) && &got.Lo[0] == &space[0] && r.err == nil &&
			r2.region(nil).Equal(reg) && r2.err == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOpRequestRoundTrip(b *testing.B) {
	sch := array.MustSchema([]int{512, 512, 512},
		[]array.Dist{array.Block, array.Block, array.Block}, []int{4, 4, 2})
	req := opRequest{Op: opWrite, Suffix: ".t42", Specs: []ArraySpec{
		{Name: "temperature", ElemSize: 8, Mem: sch, Disk: sch},
		{Name: "pressure", ElemSize: 8, Mem: sch, Disk: sch},
		{Name: "density", ElemSize: 8, Mem: sch, Disk: sch},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeOpRequest(encodeOpRequest(req)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubDataEncode(b *testing.B) {
	d := subData{ArrayIdx: 1, ReqID: 7,
		Region:  array.NewRegion([]int{0, 0, 0}, []int{64, 64, 64}),
		Payload: make([]byte, 1<<20)}
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := encodeSubData(d); len(got) < 1<<20 {
			b.Fatal("short encode")
		}
	}
}

// TestServeRejectsUndecodableRequest sends a one-at-a-time serve loop a
// truncated request between two good operations. There is no operation
// to answer — running it would put a Complete on the previous
// operation's tag — so the frame is counted, dropped, and the next
// collective proceeds as if it had never arrived.
func TestServeRejectsUndecodableRequest(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 1, SubchunkBytes: 1 << 10, Metrics: obs.NewRegistry()}
	specs := []ArraySpec{naturalSpec("trunc", 16)}
	barrier := newBarrier(cfg.NumClients)
	err := RunReal(cfg, memDisks(cfg.NumServers), func(cl *Client) error {
		if err := cl.WriteArrays("", specs, makeBufs(cl, specs, true)); err != nil {
			return err
		}
		barrier()
		if cl.IsMaster() {
			cl.comm.Send(cfg.ServerRank(0), tagControl, []byte{msgOpRequest, 0x01})
		}
		barrier()
		got := makeBufs(cl, specs, false)
		if err := cl.ReadArrays("", specs, got); err != nil {
			return fmt.Errorf("operation after the truncated request: %w", err)
		}
		return checkBufs(cl, specs, got)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg.Metrics.Counter("sched_frames_rejected").Value(); n != 1 {
		t.Errorf("FramesRejected = %d after one undecodable request, want 1", n)
	}
}
