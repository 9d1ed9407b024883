#include "sim/event_ladder.hh"

#include "sim/logging.hh"

namespace howsim::sim
{

namespace
{

/**
 * End tick (exclusive) of bucket @p idx in a rung at @p base with
 * bucket width 2^@p widthLog2, saturating at maxTick for rungs that
 * reach the end of representable time.
 */
Tick
bucketEndTick(Tick base, std::size_t idx, unsigned widthLog2)
{
    Tick start = base + (static_cast<Tick>(idx) << widthLog2);
    Tick width = Tick(1) << widthLog2;
    return start > maxTick - width ? maxTick : start + width;
}

} // namespace

void
EventLadder::recycle(Bucket &bucket)
{
    if (bucket.capacity() == 0 || bucket.capacity() > maxSpareCapacity
        || spareBuckets.size() >= maxSpareBuckets)
        return;
    bucket.clear();
    spareBuckets.push_back(std::move(bucket));
}

EventLadder::Rung
EventLadder::makeRung(Tick base, Tick end, unsigned widthLog2,
                      std::size_t n)
{
    Rung r;
    r.base = base;
    r.end = end;
    r.widthLog2 = widthLog2;
    if (!spareArrays.empty()) {
        // A retired array's buckets were all drained (each left
        // without storage), so clearing it frees nothing.
        r.buckets = std::move(spareArrays.back());
        spareArrays.pop_back();
        r.buckets.clear();
    }
    r.buckets.resize(n);
    return r;
}

void
EventLadder::retireRung()
{
    if (spareArrays.size() < maxSpareArrays)
        spareArrays.push_back(std::move(rungs.back().buckets));
    rungs.pop_back();
}

void
EventLadder::pushRung(SchedEntry entry)
{
    // Deepest-first: near-future schedules — the overwhelming
    // majority — hit rungs.back() on the first comparison. Rung
    // ranges are contiguous and ascending toward the front.
    for (std::size_t i = rungs.size(); i-- > 0;) {
        Rung &r = rungs[i];
        if (entry.when < r.end) {
            std::size_t idx = static_cast<std::size_t>(
                (entry.when - r.base) >> r.widthLog2);
            append(r.buckets[idx], entry);
            ++r.count;
            return;
        }
    }
    // push() routes [topStart, ∞) to top and [0, bottomLimit) to
    // bottom, and the rungs cover [bottomLimit, topStart) whenever
    // that range is nonempty, so falling through means a broken
    // tier invariant.
    panic("EventLadder: tick %llu not covered by any tier",
          static_cast<unsigned long long>(entry.when));
}

void
EventLadder::refillBottom()
{
    for (;;) {
        while (!rungs.empty()) {
            Rung &r = rungs.back();
            if (r.count == 0) {
                // Exhausted: its whole range is behind us.
                bottomLimit = r.end;
                retireRung();
                continue;
            }
            while (r.buckets[r.cur].empty())
                ++r.cur;
            Bucket bucket;
            bucket.swap(r.buckets[r.cur]);
            Tick bstart = r.base
                          + (static_cast<Tick>(r.cur) << r.widthLog2);
            Tick bend = bucketEndTick(r.base, r.cur, r.widthLog2);
            // Advance the drain frontier to this bucket's start
            // before a possible split, so a child rung's base never
            // sits above the routing boundary.
            bottomLimit = bstart;
            r.count -= bucket.size();
            ++r.cur;
            if (bucket.size() > splitThreshold && r.widthLog2 > 0) {
                // Rung split: spread the oversized bucket over a
                // finer child so no single heapify is large. `r` is
                // invalidated by the push_back below.
                unsigned cw = r.widthLog2 > spillBucketsLog2
                                  ? r.widthLog2 - spillBucketsLog2
                                  : 0;
                Rung child = makeRung(bstart, bend, cw,
                                      std::size_t(1)
                                          << (r.widthLog2 - cw));
                for (const SchedEntry &e : bucket)
                    append(child.buckets[(e.when - bstart) >> cw], e);
                child.count = bucket.size();
                recycle(bucket);
                rungs.push_back(std::move(child));
                continue;
            }
            bottom.swap(bucket);
            recycle(bucket);
            // A width-1 bucket holds a single tick in seq order and
            // becomes a sorted run outright; wider buckets are
            // scanned for tick uniformity first (adoptBottom).
            adoptBottom(r.widthLog2 == 0);
            bottomLimit = bend;
            return;
        }
        spillTop();
        if (!bottom.empty())
            return;
    }
}

void
EventLadder::spillTop()
{
    if (top.empty())
        panic("EventLadder: refill with no pending events");

    if (top.size() <= splitThreshold) {
        // Sparse tail (e.g. one long-delay process ping-ponging with
        // the clock): skip the rung machinery and drain top
        // directly. swap() keeps both vectors' capacity live, so the
        // steady state allocates nothing. top appends in seq order,
        // so a single-tick tail qualifies as a sorted run too.
        bottom.swap(top);
        adoptBottom(false);
        bottomLimit = bucketEndTick(topMax, 0, 0);
        topStart = bottomLimit;
        topMin = maxTick;
        topMax = 0;
        return;
    }

    // Aim for roughly one event per bucket (the classic ladder-queue
    // sizing): enough buckets that most skip the make_heap pass, few
    // enough that the resize and the empty-bucket walk stay cheap.
    std::size_t target = top.size();
    if (target < spillBuckets)
        target = spillBuckets;
    if (target > maxSpillBuckets)
        target = maxSpillBuckets;
    Tick span = topMax - topMin;
    unsigned w = 0;
    while ((span >> w) >= target)
        ++w;
    Tick base = (topMin >> w) << w;
    std::size_t nbuckets =
        static_cast<std::size_t>((topMax >> w) - (topMin >> w)) + 1;
    Tick end = bucketEndTick(base, nbuckets - 1, w);
    if (end == maxTick) {
        // The rung reaches the end of representable time; widen it
        // to cover every schedulable tick so bucket indexing stays
        // in bounds for later pushes below topStart.
        nbuckets = static_cast<std::size_t>((maxTick - base) >> w) + 1;
    }

    Rung r = makeRung(base, end, w, nbuckets);
    for (const SchedEntry &e : top)
        append(r.buckets[(e.when - base) >> w], e);
    r.count = top.size();
    top.clear();
    topStart = end;
    if (base > bottomLimit)
        bottomLimit = base;
    topMin = maxTick;
    topMax = 0;
    rungs.push_back(std::move(r));
}

void
EventLadder::adoptBottom(bool knownSingleTick)
{
    bottomPos = 0;
    if (knownSingleTick && !explicitSeqs) {
        bottomSorted = true;
        return;
    }
    // A linear uniformity scan is cheaper than the make_heap + k
    // sift-downs it replaces whenever it succeeds, and touches the
    // same cache lines make_heap was about to when it fails. Once
    // explicitly-sequenced entries exist, appends are no longer
    // guaranteed seq-ascending, so the scan also verifies seq order
    // before trusting the vector as a run.
    Tick first = bottom.front().when;
    std::uint64_t prevSeq = bottom.front().seq;
    for (std::size_t i = 1; i < bottom.size(); ++i) {
        if (bottom[i].when != first
            || (explicitSeqs && bottom[i].seq < prevSeq)) {
            bottomSorted = false;
            std::make_heap(bottom.begin(), bottom.end(),
                           SchedAfter{});
            return;
        }
        prevSeq = bottom[i].seq;
    }
    bottomSorted = true;
}

void
EventLadder::demoteSortedBottom()
{
    bottom.erase(bottom.begin(),
                 bottom.begin()
                     + static_cast<std::ptrdiff_t>(bottomPos));
    bottomPos = 0;
    bottomSorted = false;
    std::make_heap(bottom.begin(), bottom.end(), SchedAfter{});
}

EventLadder::Occupancy
EventLadder::occupancy() const
{
    Occupancy occ;
    occ.bottom = bottom.size() - bottomPos;
    occ.rungs = rungs.size();
    for (const Rung &r : rungs)
        occ.rungEvents += r.count;
    occ.top = top.size();
    return occ;
}

} // namespace howsim::sim
