package cache

// Len returns the number of resident pages (including invalidated ones).
func (c *Cache) Len() int { return len(c.index) }

// Stats returns the hit and miss counters accumulated by Get.
func (c *Cache) Stats() (hits, misses int64) { return c.hits, c.misses }

// OldLen returns the number of resident old-version pages.
func (m *MultiCache) OldLen() int { return m.old.order.len() }
