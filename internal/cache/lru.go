package cache

// lru is an index-linked recency list over a slab of nodes: the storage
// both cache partitions share. Links are int32 slab indexes, node 0 is
// the sentinel (its next is the most recently used node, its prev the
// least), and index 0 doubles as "none". A removed node goes on a free
// list threaded through next, and the slab is pre-sized to the capacity,
// so admission, eviction, Clear and Remove reuse nodes instead of
// allocating them.
type lru[T any] struct {
	nodes []lruNode[T]
	free  int32 // head of the free list; 0 = empty
	n     int   // linked (resident) nodes
}

type lruNode[T any] struct {
	prev, next int32
	val        T
}

func newLRU[T any](capacity int) lru[T] {
	return lru[T]{nodes: make([]lruNode[T], 1, capacity+1)}
}

func (l *lru[T]) len() int { return l.n }

// at returns the value of node i for in-place update.
func (l *lru[T]) at(i int32) *T { return &l.nodes[i].val }

// front and back return the most and least recently used nodes (0 when
// empty); next walks from front to back and returns 0 past the end.
func (l *lru[T]) front() int32       { return l.nodes[0].next }
func (l *lru[T]) back() int32        { return l.nodes[0].prev }
func (l *lru[T]) next(i int32) int32 { return l.nodes[i].next }

// pushFront stores v in a free node, links it as the most recently used
// and returns its index.
func (l *lru[T]) pushFront(v T) int32 {
	i := l.free
	if i != 0 {
		l.free = l.nodes[i].next
	} else {
		// Within the capacity reserved by newLRU: never reallocates.
		l.nodes = append(l.nodes, lruNode[T]{})
		i = int32(len(l.nodes) - 1)
	}
	l.nodes[i].val = v
	l.link(i)
	l.n++
	return i
}

// moveToFront marks node i as the most recently used.
func (l *lru[T]) moveToFront(i int32) {
	if l.nodes[0].next == i {
		return
	}
	l.unlink(i)
	l.link(i)
}

// remove unlinks node i and puts it on the free list.
func (l *lru[T]) remove(i int32) {
	l.unlink(i)
	l.nodes[i].next = l.free
	l.free = i
	l.n--
}

// clear drops every node, keeping the slab's capacity.
func (l *lru[T]) clear() {
	l.nodes = l.nodes[:1]
	l.nodes[0].prev, l.nodes[0].next = 0, 0
	l.free = 0
	l.n = 0
}

func (l *lru[T]) link(i int32) {
	first := l.nodes[0].next
	l.nodes[i].prev, l.nodes[i].next = 0, first
	l.nodes[first].prev = i
	l.nodes[0].next = i
}

func (l *lru[T]) unlink(i int32) {
	p, n := l.nodes[i].prev, l.nodes[i].next
	l.nodes[p].next = n
	l.nodes[n].prev = p
}
