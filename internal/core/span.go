package core

import (
	"repro/internal/data"
	"repro/internal/score"
	"repro/internal/topk"
)

// spanBlock is the range top-k building block of a straddle region: global
// rows [lo, hi) of a shard group, addressed by span-local row (local row r is
// global row lo+r). It builds nothing. Every probe goes to the overlapped
// shards' own forward blocks — a sealed shard's *topk.Index, the tail's
// *topk.View, or whatever Options.NewBlock produced — and the per-shard lists
// merge under (score desc, time desc) down to k. Top-k over a union of
// disjoint ranges is the merge of the per-range top-k lists, so the answer is
// exactly what an index built over the region would return; this is
// topk.Forest.QueryRangeInto one level up, over shards instead of chunk trees.
//
// A spanBlock lives in its probe (see probe.spanView) and is single-threaded
// like the probe. The shard probes run on the caller's topk.Scratch, whose
// heap/pq (Index) and fheap/fbuf (View) buffers they already use, so the
// per-shard result and merge buffers here are the block's own; with warm
// buffers a probe performs zero allocations when every shard block is a
// ScratchBlock.
type spanBlock struct {
	g      *shardGroup
	lo, hi int           // global row range of the span
	ds     *data.Dataset // the span's rows, for time-window probes

	shard []topk.Item // one shard's probe result
	acc   []topk.Item // merged top-k so far
	tmp   []topk.Item // merge output, swapped with acc
}

// spanView points the probe's span block at global rows [lo, hi) of g and
// returns a view over it, reusing the probe's dataset header and block.
func (pr *probe) spanView(g *shardGroup, lo, hi int) *view {
	b := &pr.span
	b.g, b.lo, b.hi = g, lo, hi
	b.ds = g.ds.SliceInto(&pr.spanDS, lo, hi)
	pr.spanV = view{ds: b.ds, idx: b, into: b}
	return &pr.spanV
}

// Query implements Block.
func (b *spanBlock) Query(s score.Scorer, k int, t1, t2 int64) []topk.Item {
	lo, hi := b.ds.IndexRange(t1, t2)
	return b.QueryRange(s, k, lo, hi)
}

// QueryRange implements Block.
func (b *spanBlock) QueryRange(s score.Scorer, k int, lo, hi int) []topk.Item {
	sc := topk.GetScratch()
	out := b.QueryRangeInto(s, k, lo, hi, sc, nil)
	topk.PutScratch(sc)
	return out
}

// QueryInto implements ScratchBlock.
func (b *spanBlock) QueryInto(s score.Scorer, k int, t1, t2 int64, sc *topk.Scratch, dst []topk.Item) []topk.Item {
	lo, hi := b.ds.IndexRange(t1, t2)
	return b.QueryRangeInto(s, k, lo, hi, sc, dst)
}

// QueryRangeInto implements ScratchBlock over span-local rows [lo, hi).
func (b *spanBlock) QueryRangeInto(s score.Scorer, k int, lo, hi int, sc *topk.Scratch, dst []topk.Item) []topk.Item {
	glo, ghi := b.lo+max(lo, 0), min(b.lo+hi, b.hi)
	if k <= 0 || glo >= ghi {
		return dst[:0]
	}
	g := b.g
	si := g.shardAt(glo)
	if sh := &g.shards[si]; ghi <= sh.hi {
		// One shard covers the range: probe straight into dst.
		dst = probeShard(sh, s, k, glo-sh.lo, ghi-sh.lo, sc, dst)
		shiftIDs(dst, int32(sh.lo-b.lo))
		return dst
	}
	acc := b.acc[:0]
	for ; si < len(g.shards) && g.shards[si].lo < ghi; si++ {
		sh := &g.shards[si]
		items := probeShard(sh, s, k, max(glo, sh.lo)-sh.lo, min(ghi, sh.hi)-sh.lo, sc, b.shard)
		shiftIDs(items, int32(sh.lo-b.lo))
		b.tmp = mergeTopK(b.tmp, acc, items, k)
		acc, b.tmp = b.tmp, acc
		if cap(items) > cap(b.shard) {
			b.shard = items[:0]
		}
	}
	b.acc = acc[:0]
	return append(dst[:0], acc...)
}

// probeShard runs one range top-k probe over shard-local rows [lo, hi) of
// sh's forward block into dst. A block without scratch probes answers into
// its own slice, which is copied: the caller shifts IDs in place.
func probeShard(sh *timeShard, s score.Scorer, k, lo, hi int, sc *topk.Scratch, dst []topk.Item) []topk.Item {
	if into := sh.eng.fwd.into; into != nil {
		return into.QueryRangeInto(s, k, lo, hi, sc, dst)
	}
	return append(dst[:0], sh.eng.fwd.idx.QueryRange(s, k, lo, hi)...)
}

func shiftIDs(items []topk.Item, by int32) {
	for i := range items {
		items[i].ID += by
	}
}

// mergeTopK merges two lists sorted under (score desc, time desc) into
// dst[:0], keeping the first k.
func mergeTopK(dst, a, b []topk.Item, k int) []topk.Item {
	dst = dst[:0]
	i, j := 0, 0
	for len(dst) < k && (i < len(a) || j < len(b)) {
		if j == len(b) || i < len(a) && topk.Better(a[i], b[j]) {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	return dst
}
