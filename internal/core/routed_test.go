package core

import (
	"testing"
	"time"

	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/queue"
)

// A bounded receive of a message that is already there allocates
// nothing, whichever endpoint it is made on: no timer, no closure, no
// queue growth. (The first bounded wait on a queue makes its timer;
// AllocsPerRun's warm-up call takes that.)
func TestRecvZeroAllocSteadyState(t *testing.T) {
	const tag = 5
	frame := []byte{1, 2, 3}

	inproc := mpi.NewWorld(1).Comm(0)

	hub, err := mpi.ListenHub("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	local, err := hub.Local(0)
	if err != nil {
		t.Fatal(err)
	}

	box := queue.New[mpi.Message](nil)
	routed := newRoutedComm(inproc, box, clock.NewReal())

	for _, tc := range []struct {
		name string
		comm mpi.Comm
		put  func()
	}{
		{"inproc", inproc, func() { inproc.SendOwned(0, tag, frame) }},
		{"hub-local", local, func() { local.SendOwned(0, tag, frame) }},
		{"routed", routed, func() { box.Put(mpi.Message{Source: 0, Tag: tag, Data: frame}) }},
	} {
		dc := tc.comm.(mpi.DeadlineComm)
		allocs := testing.AllocsPerRun(200, func() {
			tc.put()
			if m, err := dc.RecvTimeout(0, tag, time.Second); err != nil || len(m.Data) != len(frame) {
				t.Fatalf("%s: RecvTimeout = %v, %v", tc.name, m, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: put + RecvTimeout = %v allocs, want 0", tc.name, allocs)
		}
	}
}
