package pool

import (
	"sync"
	"testing"
)

func TestFreeReusesUpToCapacity(t *testing.T) {
	f := NewFree[[]int](2)
	a, b, c := f.Get(), f.Get(), f.Get()
	if a == b || b == c || a == c {
		t.Fatal("an empty list returned one value twice")
	}
	f.Put(a)
	f.Put(b)
	f.Put(c) // past capacity: dropped
	got := map[*[]int]bool{f.Get(): true, f.Get(): true}
	if !got[a] || !got[b] {
		t.Fatal("Get did not return the values Put kept")
	}
	if x := f.Get(); x == a || x == b || x == c {
		t.Fatal("Get returned a value the full list should have dropped")
	}
	f.Put(a)
	f.Clear()
	if f.Get() == a {
		t.Fatal("Get returned a value Clear dropped")
	}
}

// TestFreeConcurrentUse has goroutines take and give back values at once;
// under -race it fails if two of them ever hold one value.
func TestFreeConcurrentUse(t *testing.T) {
	f := NewFree[int](4)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 1000 {
				x := f.Get()
				*x = g*1000 + i
				if *x != g*1000+i {
					t.Error("a value was shared between goroutines")
				}
				f.Put(x)
			}
		}()
	}
	wg.Wait()
}
