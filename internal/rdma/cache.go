package rdma

// ctxCache is the RNIC's connection-context cache: an intrusive list of
// resident context entries, coldest at the front. Every operation is O(1)
// and allocation-free once the node free list has grown to the cache size.
//
// The cache is a multiset: a context becomes resident only when its fetch
// completes, so overlapping misses on one QP each insert their own copy of
// the context. Each QP threads its copies in list order (ctxFirst …
// ctxLast through sameNext), which is what keeps the three operations
// exact:
//   - a hit moves the QP's first (coldest) copy to the back;
//   - a completed fetch appends a new copy at the back;
//   - beyond the capacity the front entry is evicted, and the front entry
//     is always the first copy of its QP.
type ctxCache struct {
	head, tail *ctxNode
	n          int
	free       []*ctxNode
}

// ctxNode is one resident context entry.
type ctxNode struct {
	q          *qp
	prev, next *ctxNode // list order, front = coldest
	sameNext   *ctxNode // the next copy of q's context toward the back
}

// hit reports whether q's context is resident and, if so, moves its
// first copy to the back (hottest).
func (c *ctxCache) hit(q *qp) bool {
	n := q.ctxFirst
	if n == nil {
		return false
	}
	q.popFirst()
	c.unlink(n)
	c.pushBack(n)
	q.pushLast(n)
	return true
}

// insert makes one more copy of q's context resident and evicts the
// coldest entry once the cache holds more than capacity entries.
func (c *ctxCache) insert(q *qp, capacity int) {
	var n *ctxNode
	if k := len(c.free); k > 0 {
		n = c.free[k-1]
		c.free[k-1] = nil
		c.free = c.free[:k-1]
	} else {
		n = &ctxNode{}
	}
	n.q = q
	c.pushBack(n)
	q.pushLast(n)
	c.n++
	if c.n > capacity {
		front := c.head
		front.q.popFirst()
		c.unlink(front)
		c.n--
		*front = ctxNode{}
		c.free = append(c.free, front)
	}
}

func (c *ctxCache) unlink(n *ctxNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *ctxCache) pushBack(n *ctxNode) {
	n.prev = c.tail
	if c.tail != nil {
		c.tail.next = n
	} else {
		c.head = n
	}
	c.tail = n
}

// popFirst drops the QP's first resident copy from its chain.
func (q *qp) popFirst() {
	n := q.ctxFirst
	q.ctxFirst = n.sameNext
	if q.ctxFirst == nil {
		q.ctxLast = nil
	}
	n.sameNext = nil
}

// pushLast appends a copy that was just placed at the back of the list.
func (q *qp) pushLast(n *ctxNode) {
	if q.ctxLast != nil {
		q.ctxLast.sameNext = n
	} else {
		q.ctxFirst = n
	}
	q.ctxLast = n
}
