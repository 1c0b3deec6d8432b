package core

import (
	"errors"
	"testing"

	"panda/internal/array"
)

// Fuzz targets: the wire decoders face bytes from the network and must
// fail cleanly — an error, never a panic — on arbitrary input. Run with
// `go test -fuzz FuzzDecodeOpRequest ./internal/core` for a real
// campaign; under plain `go test` the seed corpus doubles as a
// robustness unit test.

func FuzzDecodeOpRequest(f *testing.F) {
	sch := array.MustSchema([]int{8, 8}, []array.Dist{array.Block, array.Star}, []int{2})
	valid := encodeOpRequest(opRequest{Op: opWrite, Suffix: ".t1", Specs: []ArraySpec{
		{Name: "a", ElemSize: 4, Mem: sch, Disk: sch, SubchunkBytes: 4096},
	}})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{msgOpRequest})
	f.Add([]byte{msgOpRequest, opWrite, 0xFF, 0xFF})
	// A frame carrying a non-zero operation sequence, and truncations
	// that cut through the sequence field itself.
	seq := encodeOpRequest(opRequest{Op: opRead, Seq: 0xDEAD, Suffix: "", Specs: []ArraySpec{
		{Name: "b", ElemSize: 8, Mem: sch, Disk: sch},
	}})
	f.Add(seq)
	f.Add(seq[:3])
	f.Add(seq[:5])
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeOpRequest(data)
		if err == nil {
			// Whatever decoded must re-encode without panicking.
			_ = encodeOpRequest(req)
		}
	})
}

func FuzzDecodeSubData(f *testing.F) {
	valid := encodeSubData(subData{ArrayIdx: 1, ReqID: 7,
		Region: array.NewRegion([]int{0, 0}, []int{4, 4}), Payload: []byte{1, 2, 3}})
	f.Add(valid)
	f.Add(valid[:3])
	f.Add([]byte{msgSubData, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || data[0] != msgSubData {
			return
		}
		r := rbuf{b: data}
		r.u8()
		_, _ = decodeSubData(&r, nil)
	})
}

func FuzzDecodeSubReq(f *testing.F) {
	valid := encodeSubReq(subReq{ArrayIdx: 2, ReqID: 9,
		Region: array.NewRegion([]int{1}, []int{5})})
	f.Add(valid)
	f.Add([]byte{msgSubReq})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || data[0] != msgSubReq {
			return
		}
		r := rbuf{b: data}
		r.u8()
		_, _ = decodeSubReq(&r, nil)
	})
}

func FuzzDecodeSchedDone(f *testing.F) {
	f.Add(encodeSchedDone(0, false))
	f.Add(encodeSchedDone(0xFFFFFFFF, true))
	f.Add([]byte{msgSchedDone})
	f.Add([]byte{msgSchedDone, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || data[0] != msgSchedDone {
			return
		}
		r := rbuf{b: data}
		r.u8()
		_, _, _ = decodeSchedDone(&r)
	})
}

func FuzzDecodeStatus(f *testing.F) {
	// Status frames carry operation outcomes (Complete, Done, Abort)
	// across the wire, including the typed-error code. Corrupted or
	// truncated ones must decode to an error, never panic, and whatever
	// decodes must be a usable error value.
	f.Add(encodeStatus(msgComplete, 0, 0, nil))
	f.Add(encodeStatus(msgComplete, 1, 0, ErrTimeout))
	f.Add(encodeStatus(msgDone, 0, 2, ErrPeerLost))
	f.Add(encodeAbort(0, 0, errors.New("disk exploded")))
	valid := encodeStatus(msgComplete, 0, 0, ErrTimeout)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{msgAbort})
	f.Add([]byte{msgAbort, 0xFF})                  // unknown status code
	f.Add([]byte{msgComplete, 1, 0xFF, 0xFF, 'x'}) // length field past the buffer
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r := rbuf{b: data}
		r.u8()
		frame, err := decodeStatus(&r)
		if err != nil {
			return
		}
		if status := frame.Err; status != nil {
			_ = status.Error()
			// The sentinel classification must round-trip through a
			// re-encode of the reconstructed error.
			again := encodeStatus(msgComplete, frame.Attempt, frame.Round, status)
			r2 := rbuf{b: again}
			r2.u8()
			frame2, err2 := decodeStatus(&r2)
			if err2 != nil || frame2.Err == nil {
				t.Fatalf("re-encode of %v failed to decode: %v", status, err2)
			}
			status2 := frame2.Err
			if errors.Is(status, ErrTimeout) != errors.Is(status2, ErrTimeout) ||
				errors.Is(status, ErrPeerLost) != errors.Is(status2, ErrPeerLost) {
				t.Fatalf("sentinel classification lost in round trip: %v vs %v", status, status2)
			}
			if frame2.Attempt != frame.Attempt || frame2.Round != frame.Round {
				t.Fatalf("attempt/round lost in round trip")
			}
		}
	})
}
