package lru

import (
	"slices"
	"testing"
)

// keys returns the cached keys, oldest first.
func keys[V any](c *Cache[V]) []string {
	var out []string
	c.Walk(func(k string, _ V) { out = append(out, k) })
	return out
}

func TestOrderAndEviction(t *testing.T) {
	var evicted []string
	c := New(3, func(k string, v int) { evicted = append(evicted, k) })
	for i, k := range []string{"a", "b", "c"} {
		if ev, added := c.Add(k, i, 1); ev != 0 || !added {
			t.Fatalf("Add(%q) = %d, %v; want 0, true", k, ev, added)
		}
	}
	if v, ok := c.Get("a"); !ok || v != 0 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if got := keys(c); !slices.Equal(got, []string{"b", "c", "a"}) {
		t.Fatalf("walk after Get(a) = %v, want oldest first [b c a]", got)
	}
	if _, ok := c.Peek("b"); !ok {
		t.Fatal("Peek(b) missed")
	}
	if ev, _ := c.Add("d", 3, 1); ev != 1 || !slices.Equal(evicted, []string{"b"}) {
		t.Fatalf("adding d evicted %d: %v, want b alone (Peek does not promote)", ev, evicted)
	}
	if ev, added := c.Add("c", 99, 1); ev != 0 || added {
		t.Fatalf("re-adding c = %d, %v; want 0, false", ev, added)
	}
	if v, _ := c.Peek("c"); v != 2 {
		t.Fatalf("re-adding c replaced its value with %d", v)
	}
	if got := keys(c); !slices.Equal(got, []string{"a", "d", "c"}) {
		t.Fatalf("walk = %v, want [a d c]", got)
	}
	if c.Len() != 3 || c.Cost() != 3 {
		t.Fatalf("len %d, cost %d; want 3, 3", c.Len(), c.Cost())
	}
}

func TestNewestNeverEvicted(t *testing.T) {
	c := New[string](10, nil)
	c.Add("small", "s", 4)
	if ev, _ := c.Add("big", "b", 100); ev != 1 {
		t.Fatalf("adding big evicted %d, want 1", ev)
	}
	if _, ok := c.Get("big"); !ok || c.Len() != 1 || c.Cost() != 100 {
		t.Fatalf("big cached %v, len %d, cost %d; want true, 1, 100", ok, c.Len(), c.Cost())
	}
}

// Shared costs charged through Charge count against the budget at the
// next Trim, and an eviction hook may release them.
func TestChargeAndHook(t *testing.T) {
	var c *Cache[int]
	c = New(10, func(k string, shared int) { c.Charge(-int64(shared)) })
	c.Charge(6)
	c.Add("a", 6, 2) // a carries the shared 6
	if c.Cost() != 8 {
		t.Fatalf("cost %d, want 8", c.Cost())
	}
	c.Charge(3)
	if n := c.Trim(); n != 0 {
		t.Fatalf("Trim with one entry evicted %d", n)
	}
	c.Add("b", 0, 1)
	if _, ok := c.Peek("a"); ok || c.Cost() != 4 {
		t.Fatalf("a cached %v, cost %d; want a evicted with its shared cost, cost 4", ok, c.Cost())
	}
	c.Remove("b")
	c.Remove("b")
	c.RemoveOldest()
	if c.Len() != 0 || c.Cost() != 3 {
		t.Fatalf("after removing b: len %d, cost %d; want 0, 3", c.Len(), c.Cost())
	}
}

func TestGetBytesAllocatesNothing(t *testing.T) {
	c := New[int](1<<20, nil)
	c.Add("kernel=l1|size=8", 1, 1)
	c.Add("other", 2, 1)
	key := []byte("kernel=l1|size=8")
	if n := testing.AllocsPerRun(100, func() {
		if v, ok := c.GetBytes(key); !ok || v != 1 {
			t.Fatal("GetBytes missed")
		}
	}); n != 0 {
		t.Fatalf("GetBytes allocates %.0f times, want 0", n)
	}
	if got := keys(c); !slices.Equal(got, []string{"other", "kernel=l1|size=8"}) {
		t.Fatalf("walk = %v: GetBytes did not promote", got)
	}
}
