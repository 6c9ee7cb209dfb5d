package eval

import (
	"fmt"

	"gmark/internal/bitset"
	"gmark/internal/graph"
)

// spillView is one evaluating goroutine's private view of a
// SpillSource: a handle table over the spill's shards. The first touch
// of a shard pins it through the shared ShardCache with one locked
// lookup; every later touch is an array index, so the per-call cost of
// Neighbors no longer includes the cache's mutex, map lookup and LRU
// update. A view is not safe for concurrent use, and its pins must be
// dropped with release — at the end of each claimed node range and
// when the evaluation returns — so the cache can evict again.
//
// Every check SpillSource.Neighbors makes still runs on every call:
// the predicate and shard index are bounded by the manifest, the row
// by its shard's node range, and failures stick on the source for Err.
type spillView struct {
	src *SpillSource
	// handles[(2*pred+inv)*src.maxShards+idx] is the pinned shard at
	// that position, or nil before its first touch since the last
	// release.
	handles []*cachedShard
	pinned  []*cacheEntry // entries pinned since the last release
}

// workerView returns the Source one evaluating goroutine reads through
// and the release that drops the pins its reads took; release may run
// any number of times and leaves the view usable. A SpillSource hands
// out a fresh spillView; every other source is its own view, with a
// no-op release.
func workerView(g Source) (Source, func()) {
	s, ok := g.(*SpillSource)
	if !ok {
		return g, func() {}
	}
	v := &spillView{src: s, handles: make([]*cachedShard, len(s.shardCounts)*s.maxShards)}
	return v, v.release
}

// NumNodes implements Source.
func (v *spillView) NumNodes() int { return v.src.NumNodes() }

// PredIndex implements Source.
func (v *spillView) PredIndex(name string) graph.PredID { return v.src.PredIndex(name) }

// ActiveDomain implements DomainSource, so active-domain pruning sees
// through the view.
func (v *spillView) ActiveDomain(p graph.PredID, inverse bool) (*bitset.Set, error) {
	return v.src.ActiveDomain(p, inverse)
}

// Neighbors implements Source with SpillSource.Neighbors' semantics.
func (v *spillView) Neighbors(n graph.NodeID, p graph.PredID, inverse bool) []int32 {
	s := v.src
	shardNodes := s.spill.Manifest.ShardNodes
	if shardNodes <= 0 {
		s.fail(fmt.Errorf("eval: spill manifest has shard_nodes %d", shardNodes))
		return nil
	}
	idx := int(n) / shardNodes
	key := shardKey{pred: p, inv: inverse, idx: idx}
	dir := predDir(p, inverse)
	if p < 0 || dir >= len(s.shardCounts) || idx < 0 || idx >= s.shardCounts[dir] {
		// Outside the manifest: shardMeta words the error.
		_, err := s.shardMeta(key)
		s.fail(err)
		return nil
	}
	slot := dir*s.maxShards + idx
	sh := v.handles[slot]
	if sh == nil {
		e, err := s.shard(key, false, true)
		if err != nil {
			return nil
		}
		sh = e.sh
		v.handles[slot] = sh
		v.pinned = append(v.pinned, e)
	}
	return s.row(sh, n, idx)
}

// release clears the handles filled since the last release and drops
// their pins.
func (v *spillView) release() {
	if len(v.pinned) == 0 {
		return
	}
	for _, e := range v.pinned {
		v.handles[predDir(e.key.pred, e.key.inv)*v.src.maxShards+e.key.idx] = nil
	}
	v.src.cache.unpin(v.pinned)
	clear(v.pinned)
	v.pinned = v.pinned[:0]
}

// predDir numbers a (predicate, direction) pair as 2*pred+inv: the
// index of SpillSource.shardCounts and the row of a view's handle
// table.
func predDir(p graph.PredID, inverse bool) int {
	if inverse {
		return 2*int(p) + 1
	}
	return 2 * int(p)
}
