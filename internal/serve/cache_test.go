package serve

import (
	"slices"
	"testing"
)

// keys lists c's keys from most to least recently used.
func (c *lru[V]) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruNode[V]).key)
	}
	return out
}

// TestLRUEvictionOrder: past its bound the lru evicts the least recently
// used key, where a get and a re-put both count as use.
func TestLRUEvictionOrder(t *testing.T) {
	c := newLRU[int](3)
	for i, k := range []string{"a", "b", "c"} {
		c.put(k, i)
	}
	if v, ok := c.get("a"); !ok || v != 0 {
		t.Fatalf("get(a) = %d, %v", v, ok)
	}
	c.put("d", 3) // evicts b: a was refreshed by the get
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction after a was refreshed")
	}
	if want := []string{"d", "a", "c"}; !slices.Equal(c.keys(), want) {
		t.Fatalf("order %q, want %q", c.keys(), want)
	}
	c.put("c", 20) // refresh by re-put, new value
	c.put("e", 4)  // evicts a
	if want := []string{"e", "c", "d"}; !slices.Equal(c.keys(), want) {
		t.Fatalf("order %q, want %q", c.keys(), want)
	}
	if v, _ := c.get("c"); v != 20 {
		t.Errorf("re-put value %d, want 20", v)
	}
	if c.len() != 3 {
		t.Errorf("len %d, want the bound 3", c.len())
	}
	if v, ok := c.get("a"); ok || v != 0 {
		t.Errorf("evicted get = %d, %v; want zero, false", v, ok)
	}
}
