package lru

import "testing"

func TestLRUHitMissEvict(t *testing.T) {
	c := New[int32, int](2)
	if _, ok := c.Get(1); ok {
		t.Fatal("empty cache returned a value")
	}
	c.Add(1, 10)
	c.Add(2, 20)
	if v, ok := c.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = %v,%v", v, ok)
	}
	// 1 is now most-recent; adding 3 must evict 2.
	c.Add(3, 30)
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted (LRU)")
	}
	if v, ok := c.Get(1); !ok || v != 10 {
		t.Fatalf("1 should survive, got %v,%v", v, ok)
	}
	if v, ok := c.Get(3); !ok || v != 30 {
		t.Fatalf("Get(3) = %v,%v", v, ok)
	}
	st := c.Snapshot()
	if st.Hits != 3 || st.Misses != 2 || st.Evictions != 1 || st.Len != 2 || st.Cap != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := New[int32, int](2)
	c.Add(1, 10)
	c.Add(2, 20)
	c.Add(1, 11) // update, not insert: no eviction
	if st := c.Snapshot(); st.Evictions != 0 || st.Len != 2 {
		t.Errorf("stats after update = %+v", st)
	}
	if v, _ := c.Get(1); v != 11 {
		t.Errorf("Get(1) = %v after update", v)
	}
	// The update refreshed 1, so adding 3 evicts 2.
	c.Add(3, 30)
	if _, ok := c.Get(2); ok {
		t.Error("2 should have been evicted after 1 was refreshed")
	}
}

func TestLRUDisabled(t *testing.T) {
	c := New[int32, int](0)
	c.Add(1, 10)
	if _, ok := c.Get(1); ok {
		t.Fatal("disabled cache stored a value")
	}
	if st := c.Snapshot(); st.Misses != 1 || st.Len != 0 || st.Cap != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUNil(t *testing.T) {
	var c *Cache[int32, int]
	c.Add(1, 10) // must not panic
	if _, ok := c.Get(1); ok {
		t.Fatal("nil cache returned a value")
	}
	if st := c.Snapshot(); st != (Stats{}) {
		t.Errorf("nil stats = %+v", st)
	}
}

func TestLRUDeleteFunc(t *testing.T) {
	c := New[int32, int](4)
	for k := int32(1); k <= 4; k++ {
		c.Add(k, int(k)*10)
	}
	c.DeleteFunc(func(k int32) bool { return k%2 == 0 })
	for k := int32(1); k <= 4; k++ {
		_, ok := c.Get(k)
		if want := k%2 == 1; ok != want {
			t.Errorf("Get(%d) present=%v after DeleteFunc, want %v", k, ok, want)
		}
	}
	// Deleted entries are not evictions, and their slots are free again.
	if st := c.Snapshot(); st.Evictions != 0 || st.Len != 2 {
		t.Errorf("stats after DeleteFunc = %+v", st)
	}
	c.Add(5, 50)
	c.Add(6, 60)
	if st := c.Snapshot(); st.Evictions != 0 || st.Len != 4 {
		t.Errorf("stats after refill = %+v", st)
	}
	var nilCache *Cache[int32, int]
	nilCache.DeleteFunc(func(int32) bool { return true }) // must not panic
}
