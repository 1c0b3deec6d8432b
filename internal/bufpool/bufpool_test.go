package bufpool

import (
	"testing"
)

func TestClassRounding(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{1, 256},
		{256, 256},
		{257, 256 + frameSlack},
		{1 << 20, 1 << 20},
		{1<<20 + 25, 1<<20 + frameSlack}, // a 1 MB payload plus protocol header
		{1 << 22, 1 << 22},
	}
	for _, c := range cases {
		b := GetRaw(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Errorf("GetRaw(%d): len=%d cap=%d, want len=%d cap=%d", c.n, len(b), cap(b), c.n, c.wantCap)
		}
		Put(b)
	}
}

func TestOversizeFallsBack(t *testing.T) {
	n := 1<<22 + frameSlack + 1
	b := GetRaw(n)
	if len(b) != n {
		t.Fatalf("len = %d, want %d", len(b), n)
	}
	_, _, droppedBefore := Stats()
	Put(b)
	if _, _, dropped := Stats(); dropped != droppedBefore+1 {
		t.Errorf("oversize Put was not dropped")
	}
}

func TestSubslicePutIsDropped(t *testing.T) {
	b := GetRaw(1024)
	_, _, droppedBefore := Stats()
	Put(b[10:500]) // capacity 1014: not a class size
	if _, _, dropped := Stats(); dropped != droppedBefore+1 {
		t.Errorf("subslice Put was recycled; it must be dropped")
	}
}

func TestReuse(t *testing.T) {
	// Not guaranteed by sync.Pool, but overwhelmingly likely within one
	// goroutine with no GC in between: a Put buffer comes back.
	b := GetRaw(2048)
	b[0] = 0x5A
	Put(b)
	got := false
	for i := 0; i < 100; i++ {
		c := GetRaw(2048)
		if &c[0] == &b[0] {
			got = true
			Put(c)
			break
		}
		defer Put(c)
	}
	if !got {
		t.Skip("sync.Pool declined to recycle; nothing to assert")
	}
}

// TestBufpoolPutAllocatesNothing: a steady-state GetRaw/Put pair
// allocates nothing in any class — the *[]byte box a sync.Pool needs is
// recycled with the buffer, where it used to be made by every Put.
func TestBufpoolPutAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for _, size := range classSizes {
		if n := testing.AllocsPerRun(100, func() { Put(GetRaw(size)) }); n != 0 {
			t.Errorf("class %d: GetRaw+Put allocates %v per pair, want 0", size, n)
		}
	}
}

// TestForeignPutIsNeverParked: a sub-slice or a buffer of no class is
// dropped by Put — counted, and never handed out by a later GetRaw.
func TestForeignPutIsNeverParked(t *testing.T) {
	pooled := GetRaw(4096)
	foreign := make([]byte, 1000)
	_, _, droppedBefore := Stats()
	Put(pooled[1:]) // capacity 4095
	Put(foreign)
	if _, _, dropped := Stats(); dropped != droppedBefore+2 {
		t.Fatalf("dropped %d of 2 foreign Puts", dropped-droppedBefore)
	}
	for i := 0; i < 100; i++ {
		b := GetRaw(1000)
		if &b[0] == &foreign[0] || &b[0] == &pooled[1] {
			t.Fatal("a dropped buffer came back out of the pool")
		}
		defer Put(b)
	}
}
