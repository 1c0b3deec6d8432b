package core

import (
	"errors"
	"testing"

	"panda/internal/array"
	"panda/internal/storage"
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

// FuzzChunkList: a manifest's chunk list comes off the disk, and both
// the server's read and the offline assembler plan from it. Whatever
// list chunksFromManifest accepts names chunks of the schema, in file
// order, without overlap, each exactly its chunk's size and inside the
// file; anything else is ErrCorrupt. Each 3 bytes of data are one entry
// (chunk index, offset and length in 4-byte units, signed).
func FuzzChunkList(f *testing.F) {
	// 5x6 elements on a 4x2 mesh: chunk 3 is 2x3 and chunks 6, 7 empty.
	spec := ArraySpec{ElemSize: 4, Disk: array.MustSchema([]int{5, 6}, []array.Dist{array.Block, array.Block}, []int{4, 2})}
	f.Add([]byte{1, 0, 6, 3, 6, 6}, int64(48))
	f.Add([]byte{1, 0, 6, 1, 0, 6}, int64(48))
	f.Add([]byte{0xff, 0, 6}, int64(24))
	f.Add([]byte{6, 0, 0}, int64(0))
	f.Add([]byte{2, 0x80, 6}, int64(-1))
	f.Fuzz(func(t *testing.T, data []byte, total int64) {
		m := &storage.Manifest{TotalBytes: total}
		for i := 0; i+3 <= len(data); i += 3 {
			m.Chunks = append(m.Chunks, storage.ManifestChunk{
				ChunkIdx: int(int8(data[i])), Offset: 4 * int64(int8(data[i+1])), Bytes: 4 * int64(int8(data[i+2]))})
		}
		chunks, err := chunksFromManifest(spec, m, 1)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected untyped: %v", err)
			}
			return
		}
		if len(chunks) != len(m.Chunks) {
			t.Fatalf("%d entries accepted as %d chunks", len(m.Chunks), len(chunks))
		}
		end := int64(0)
		for _, c := range chunks {
			if c.Chunk < 0 || c.Chunk >= spec.Disk.NumChunks() {
				t.Fatalf("accepted chunk %d of %d", c.Chunk, spec.Disk.NumChunks())
			}
			if c.Bytes != spec.Disk.ChunkBytes(c.Chunk, spec.ElemSize) {
				t.Fatalf("accepted chunk %d as %d bytes", c.Chunk, c.Bytes)
			}
			if c.Offset < end || c.Offset+c.Bytes > total || c.Server != 1 {
				t.Fatalf("accepted %+v after a chunk ending at %d, in %d bytes", c, end, total)
			}
			end = c.Offset + c.Bytes
		}
	})
}
