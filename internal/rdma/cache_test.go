package rdma

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// sliceLRU is the context cache as it was first written — a slice, coldest
// first, scanned on every touch and re-sliced on every hit — kept as the
// reference the O(1) cache must reproduce exactly, duplicates included.
type sliceLRU struct {
	keys      []qpKey
	size      int
	misses    uint64
	evictions int
}

// touch is the lookup half: a hit moves the first copy to the back.
func (l *sliceLRU) touch(k qpKey) bool {
	for i, e := range l.keys {
		if e == k {
			l.keys = append(append(l.keys[:i:i], l.keys[i+1:]...), k)
			return true
		}
	}
	l.misses++
	return false
}

// fetched is the completion half of a miss: append, evict the front.
func (l *sliceLRU) fetched(k qpKey) {
	l.keys = append(l.keys, k)
	if len(l.keys) > l.size {
		l.keys = l.keys[1:]
		l.evictions++
	}
}

// resident lists the cache's entries front to back.
func (c *ctxCache) resident() []qpKey {
	var out []qpKey
	for n := c.head; n != nil; n = n.next {
		out = append(out, n.q.key)
	}
	return out
}

// TestCtxCacheMatchesSliceLRU drives the stack's context cache and the
// reference slice LRU with the same random stream of touches (hits and
// misses) and clock advances (fetch completions, which insert and evict),
// at cache sizes small enough that overlapping misses on one QP and
// evictions are routine. Residency must agree after every step, and the
// miss counts must agree at the end.
func TestCtxCacheMatchesSliceLRU(t *testing.T) {
	for _, size := range []int{0, 1, 2, 3, 5} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("size%d/seed%d", size, seed), func(t *testing.T) {
				params := DefaultParams()
				params.QPCacheSize = size
				p := newPair(t, params)
				s := p.client
				ref := &sliceLRU{size: size}
				qps := make([]*qp, 2*size+3)
				for i := range qps {
					qps[i] = s.qpTo(uint32(1000 + i))
				}
				check := func(step int) {
					t.Helper()
					if got := s.cache.resident(); !slices.Equal(got, ref.keys) {
						t.Fatalf("step %d: residency %v, reference %v", step, got, ref.keys)
					}
				}
				// The stage after the lookup: a job whose touch missed
				// (psn marked 1) completes its fetch here.
				then := func(a any) {
					j := a.(*pktJob)
					if j.psn == 1 {
						ref.fetched(j.q.key)
					}
					s.putPktJob(j)
				}
				r := rand.New(rand.NewSource(seed))
				dups := 0
				for step := 0; step < 2000; step++ {
					if r.Intn(5) < 3 {
						q := qps[r.Intn(len(qps))]
						hit := ref.touch(q.key)
						misses := s.CacheMisses
						j := s.getPktJob(q)
						s.touchCache(j, then)
						if missed := s.CacheMisses != misses; missed == hit {
							t.Fatalf("step %d: stack missed=%v, reference hit=%v", step, missed, hit)
						}
						if !hit {
							j.psn = 1
						}
					} else {
						p.eng.RunFor(time.Duration(r.Intn(4000)) * time.Nanosecond)
					}
					check(step)
					seen := map[qpKey]bool{}
					for _, k := range ref.keys {
						if seen[k] {
							dups++
						}
						seen[k] = true
					}
				}
				p.eng.Run()
				check(-1)
				if s.CacheMisses != ref.misses {
					t.Fatalf("CacheMisses = %d, reference %d", s.CacheMisses, ref.misses)
				}
				if size >= 2 && dups == 0 {
					t.Fatal("no overlapping misses exercised")
				}
				if ref.evictions == 0 {
					t.Fatal("no evictions exercised")
				}
			})
		}
	}
}
