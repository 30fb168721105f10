package serve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ann"
)

// hit is a one-result neighbor list whose only ID identifies it.
func hit(id int) []ann.Result { return []ann.Result{{ID: id}} }

func TestLRUEvictionOrder(t *testing.T) {
	c := newLRU(2)
	c.put("a", hit(1))
	c.put("b", hit(2))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before capacity exceeded")
	}
	// a was just touched, so inserting c must evict b.
	c.put("c", hit(3))
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction; LRU order not respected")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("recently-used a was evicted")
	}
	if v, ok := c.get("c"); !ok || v[0].ID != 3 {
		t.Error("newest entry c missing")
	}
	if n := c.ll.Len(); n != 2 {
		t.Errorf("len = %d, want 2", n)
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := newLRU(2)
	c.put("a", hit(1))
	c.put("a", hit(9))
	if v, _ := c.get("a"); v[0].ID != 9 {
		t.Errorf("update not applied: %v", v)
	}
	if n := c.ll.Len(); n != 1 {
		t.Errorf("len = %d after double put, want 1", n)
	}
}

func TestLRUConcurrentAccess(t *testing.T) {
	c := newLRU(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := (w*31 + i) % 100
				key := fmt.Sprintf("k%d", id)
				if v, ok := c.get(key); ok && v[0].ID != id {
					t.Errorf("key %s holds %v", key, v)
					return
				}
				c.put(key, hit(id))
			}
		}(w)
	}
	wg.Wait()
	if n := c.ll.Len(); n > 64 {
		t.Errorf("len = %d exceeds capacity", n)
	}
}
