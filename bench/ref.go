package main

// The reference op. This file imports nothing from panda/...: ref(n) is
// the yardstick every collective is timed against, so it must not
// change when the program does.
//
// The reference op crosses the kernel the way a collective through the
// daemon's hub does: two loopback socket hops and a file, 5 bytes of
// syscall I/O per payload byte. It has one direction per kind of op:
// write(n) ends in a file write and a sync, as a committed write does,
// and read(n) starts from a file read and syncs nothing, as a read does
// — on a journalling file system the sync alone can cost as much as the
// rest. Host contention therefore stretches it as it stretches a
// collective, and the ratio of the two repeats where the raw times do
// not. It is not a ceiling: a collective that skips the relay hop may
// beat it.

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// refChunk is the largest single Write and the relay's buffer size,
// matching Panda's 1 MiB sub-chunk.
const refChunk = 1 << 20

// refFileName is the sink's file inside the data dir; the stored-bytes
// metric leaves it out.
const refFileName = "ref.dat"

// readFlag in a request's length word asks for the read direction.
const readFlag = 1 << 63

// refPath is the reference pipeline: sender ↔ conn 1 ↔ relay ↔ conn 2
// ↔ sink ↔ file. Sockets and file are opened once per child.
type refPath struct {
	src    []byte // payload source and destination, as large as the largest n
	sender net.Conn
	held   int // bytes the file holds: the largest write so far
	file   *os.File
	conns  []net.Conn
	wg     sync.WaitGroup
}

// newRefPath opens the pipeline with its file in dir; maxBytes is the
// largest n ref will be asked to move.
func newRefPath(dir string, maxBytes int) (*refPath, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("ref: %w", err)
	}
	defer ln.Close()
	pair := func() (dialed, accepted net.Conn, err error) {
		dialed, err = net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, nil, err
		}
		accepted, err = ln.Accept()
		if err != nil {
			dialed.Close()
			return nil, nil, err
		}
		return dialed, accepted, nil
	}
	r := &refPath{src: make([]byte, maxBytes)}
	for i := range r.src {
		r.src[i] = byte(i * 7)
	}
	sender, relayIn, err := pair()
	if err != nil {
		return nil, fmt.Errorf("ref: %w", err)
	}
	r.conns = append(r.conns, sender, relayIn)
	relayOut, sinkIn, err := pair()
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("ref: %w", err)
	}
	r.conns = append(r.conns, relayOut, sinkIn)
	r.file, err = os.Create(filepath.Join(dir, refFileName))
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("ref: %w", err)
	}
	r.sender = sender
	r.wg.Add(3)
	go r.relay(relayIn, relayOut)
	go r.relayBack(relayOut, relayIn)
	go r.sink(sinkIn, relayIn)
	return r, nil
}

// relay copies each request from conn 1 to conn 2 through a 1 MiB
// buffer — the length word and, for a write, the payload after it —
// until conn 1 closes.
func (r *refPath) relay(in, out net.Conn) {
	defer r.wg.Done()
	buf := make([]byte, refChunk)
	for {
		if _, err := io.ReadFull(in, buf[:8]); err != nil {
			return
		}
		if _, err := out.Write(buf[:8]); err != nil {
			return
		}
		word := binary.BigEndian.Uint64(buf[:8])
		if word&readFlag != 0 {
			continue
		}
		for left := int(word); left > 0; {
			n, err := in.Read(buf[:min(left, refChunk)])
			if err != nil {
				return
			}
			if _, err := out.Write(buf[:n]); err != nil {
				return
			}
			left -= n
		}
	}
}

// relayBack copies whatever the sink sends on conn 2 to conn 1 through
// a 1 MiB buffer, until conn 2 closes.
func (r *refPath) relayBack(in, out net.Conn) {
	defer r.wg.Done()
	buf := make([]byte, refChunk)
	for {
		n, err := in.Read(buf)
		if err != nil {
			return
		}
		if _, err := out.Write(buf[:n]); err != nil {
			return
		}
	}
}

// sink serves each request: a write's payload goes sequentially into
// the file, which is synced and acknowledged with one byte on conn 1; a
// read's payload comes sequentially out of the file onto conn 2.
func (r *refPath) sink(in, ack net.Conn) {
	defer r.wg.Done()
	buf := make([]byte, refChunk)
	for {
		if _, err := io.ReadFull(in, buf[:8]); err != nil {
			return
		}
		word := binary.BigEndian.Uint64(buf[:8])
		var off int64
		if word&readFlag != 0 {
			for left := int(word &^ readFlag); left > 0; {
				n, err := r.file.ReadAt(buf[:min(left, refChunk)], off)
				if n == 0 && err != nil {
					return
				}
				if _, err := in.Write(buf[:n]); err != nil {
					return
				}
				off += int64(n)
				left -= n
			}
			continue
		}
		for left := int(word); left > 0; {
			n, err := in.Read(buf[:min(left, refChunk)])
			if err != nil {
				return
			}
			if _, err := r.file.WriteAt(buf[:n], off); err != nil {
				return
			}
			off += int64(n)
			left -= n
		}
		if err := r.file.Sync(); err != nil {
			return
		}
		if _, err := ack.Write([]byte{1}); err != nil {
			return
		}
	}
}

// write moves n bytes down the pipeline into the file and returns how
// long that took, from the first Write to the acknowledgement.
func (r *refPath) write(n int) (time.Duration, error) {
	if n > len(r.src) {
		return 0, fmt.Errorf("ref: %d bytes asked, path sized for %d", n, len(r.src))
	}
	start := time.Now()
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(n))
	if _, err := r.sender.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("ref: %w", err)
	}
	for off := 0; off < n; off += refChunk {
		if _, err := r.sender.Write(r.src[off:min(off+refChunk, n)]); err != nil {
			return 0, fmt.Errorf("ref: %w", err)
		}
	}
	if _, err := io.ReadFull(r.sender, hdr[:1]); err != nil {
		return 0, fmt.Errorf("ref: no acknowledgement: %w", err)
	}
	r.held = max(r.held, n)
	return time.Since(start), nil
}

// read moves the first n bytes of the file up the pipeline and returns
// how long that took, from the request to the last byte. The file must
// hold them: a write(n) came first.
func (r *refPath) read(n int) (time.Duration, error) {
	if n > r.held {
		return 0, fmt.Errorf("ref: %d bytes asked, file holds %d", n, r.held)
	}
	start := time.Now()
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(n)|readFlag)
	if _, err := r.sender.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("ref: %w", err)
	}
	for got := 0; got < n; {
		m, err := r.sender.Read(r.src[got:min(got+refChunk, n)])
		if err != nil {
			return 0, fmt.Errorf("ref: read back: %w", err)
		}
		got += m
	}
	return time.Since(start), nil
}

// Close shuts the sockets, waits for the relay and sink goroutines and
// closes the file.
func (r *refPath) Close() {
	for _, c := range r.conns {
		c.Close()
	}
	r.wg.Wait()
	if r.file != nil {
		r.file.Close()
	}
}
