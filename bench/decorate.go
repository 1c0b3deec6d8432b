package main

import (
	"sync/atomic"
	"time"

	"panda/internal/mpi"
	"panda/internal/storage"
)

// Decorators that put a span around every mpi.Comm and storage.Disk
// call of one node. They must not change the program they time, so the
// Comm wrapper answers every optional interface exactly as the code
// calling it would have behaved without one (the convention of
// mpi.WrapMetered), and the File wrapper forwards Sync and Size.

// lane names the track a node's spans go to, and the span and op they
// currently belong to; the harness moves both at each collective.
type lane struct {
	rec    *recorder
	track  string
	parent atomic.Int64
	op     atomic.Int64
}

func (l *lane) begin(name string) int {
	return l.rec.begin(l.track, name, int(l.parent.Load()), int(l.op.Load()))
}

func (l *lane) enter(parent, op int) {
	l.parent.Store(int64(parent))
	l.op.Store(int64(op))
}

// Span names of the decorators; the traced-collective metrics sum by
// these.
const (
	spanSend = "send"
	spanRecv = "recv_wait"
)

type spanComm struct {
	inner mpi.Comm
	lane  *lane
}

func (c *spanComm) Rank() int { return c.inner.Rank() }
func (c *spanComm) Size() int { return c.inner.Size() }

func (c *spanComm) Send(to, tag int, data []byte) {
	id := c.lane.begin(spanSend)
	c.inner.Send(to, tag, data)
	c.lane.rec.end(id)
}

func (c *spanComm) SendOwned(to, tag int, data []byte) {
	id := c.lane.begin(spanSend)
	c.inner.SendOwned(to, tag, data)
	c.lane.rec.end(id)
}

func (c *spanComm) Isend(to, tag int, data []byte) mpi.Request {
	id := c.lane.begin(spanSend)
	req := c.inner.Isend(to, tag, data)
	c.lane.rec.end(id)
	return req
}

func (c *spanComm) Recv(from, tag int) mpi.Message {
	id := c.lane.begin(spanRecv)
	m := c.inner.Recv(from, tag)
	c.lane.rec.end(id)
	return m
}

// SendVec sends as the caller would have sent on the inner endpoint:
// through its scatter-gather path when it has one, flattened otherwise.
func (c *spanComm) SendVec(to, tag int, hdr, payload []byte) bool {
	id := c.lane.begin(spanSend)
	defer c.lane.rec.end(id)
	return mpi.SendSegments(c.inner, to, tag, hdr, payload)
}

// RecvTimeout blocks like Recv when the inner endpoint cannot bound a
// wait, which is what callers do on finding no mpi.DeadlineComm.
func (c *spanComm) RecvTimeout(from, tag int, timeout time.Duration) (mpi.Message, error) {
	id := c.lane.begin(spanRecv)
	defer c.lane.rec.end(id)
	if dc, ok := c.inner.(mpi.DeadlineComm); ok {
		return dc.RecvTimeout(from, tag, timeout)
	}
	return c.inner.Recv(from, tag), nil
}

// PeerLost reports false when the inner endpoint cannot observe peer
// death, as callers assume of an endpoint that is no mpi.PeerChecker.
func (c *spanComm) PeerLost(rank int) bool {
	if pc, ok := c.inner.(mpi.PeerChecker); ok {
		return pc.PeerLost(rank)
	}
	return false
}

type spanDisk struct {
	inner storage.Disk
	lane  *lane
}

func (d *spanDisk) Create(name string) (storage.File, error) {
	id := d.lane.begin("disk.create")
	f, err := d.inner.Create(name)
	d.lane.rec.end(id)
	if err != nil {
		return nil, err
	}
	return &spanFile{inner: f, lane: d.lane}, nil
}

func (d *spanDisk) Open(name string) (storage.File, error) {
	id := d.lane.begin("disk.open")
	f, err := d.inner.Open(name)
	d.lane.rec.end(id)
	if err != nil {
		return nil, err
	}
	return &spanFile{inner: f, lane: d.lane}, nil
}

func (d *spanDisk) Remove(name string) error {
	id := d.lane.begin("disk.remove")
	defer d.lane.rec.end(id)
	return d.inner.Remove(name)
}

func (d *spanDisk) Rename(oldName, newName string) error {
	id := d.lane.begin("disk.rename")
	defer d.lane.rec.end(id)
	return d.inner.Rename(oldName, newName)
}

func (d *spanDisk) List() ([]string, error) {
	id := d.lane.begin("disk.list")
	defer d.lane.rec.end(id)
	return d.inner.List()
}

func (d *spanDisk) FlushCache() { d.inner.FlushCache() }

type spanFile struct {
	inner storage.File
	lane  *lane
}

func (f *spanFile) ReadAt(p []byte, off int64) (int, error) {
	id := f.lane.begin("disk.read")
	defer f.lane.rec.end(id)
	return f.inner.ReadAt(p, off)
}

func (f *spanFile) WriteAt(p []byte, off int64) (int, error) {
	id := f.lane.begin("disk.write")
	defer f.lane.rec.end(id)
	return f.inner.WriteAt(p, off)
}

func (f *spanFile) Sync() error {
	id := f.lane.begin("disk.sync")
	defer f.lane.rec.end(id)
	return f.inner.Sync()
}

func (f *spanFile) Size() (int64, error) {
	id := f.lane.begin("disk.size")
	defer f.lane.rec.end(id)
	return f.inner.Size()
}

func (f *spanFile) Close() error {
	id := f.lane.begin("disk.close")
	defer f.lane.rec.end(id)
	return f.inner.Close()
}
