/**
 * @file
 * Ladder-queue event scheduler: amortized O(1) schedule and pop.
 *
 * The structure exploits what a DES event population actually looks
 * like: most events are scheduled a short, clustered horizon ahead
 * (disk service times, hop latencies, software overheads all live in
 * µs–ms bands), a minority land far in the future, and draining only
 * ever consumes the near edge. Events are kept in three tiers,
 * covering contiguous, ascending tick ranges:
 *
 *  - **bottom** — a small binary heap holding every event with
 *    `when < bottomLimit`, the window currently being drained. All
 *    pops come from here; mid-drain schedules at the current tick
 *    (joiner wakeups, process starts) push into it directly.
 *  - **rungs** — a stack of bucket arrays. Each rung partitions a
 *    tick range into power-of-two-width buckets (indexing is a
 *    subtract and a shift); events append to their bucket in O(1).
 *    rungs[0] is the widest; each deeper rung subdivides one bucket
 *    of its parent. Buckets are drained in ascending order: a small
 *    bucket is heapified into bottom, an oversized one is split into
 *    a new, finer rung ("rung split") so no single heapify is large.
 *  - **top** — an unsorted overflow holding everything at or beyond
 *    `topStart`. Only its min/max are tracked on append. When bottom
 *    and all rungs are exhausted, top is spilled into a fresh rung
 *    sized to its actual span, and draining continues.
 *
 * Every event therefore moves through O(1) appends plus one small
 * heapify, instead of sifting through an O(log n) global heap. The
 * tiers hold 24-byte SchedEntry keys only — a coroutine resumption is
 * its frame address, any other action stays in EventQueue's slot
 * pool — so appends, spills, splits and sifts copy three words per
 * event. Ordering is exact, not approximate:
 * bottom is a strict (tick, seq) priority queue, and the tier ranges
 * are contiguous and disjoint, so the head of bottom is always the
 * global minimum. Drain order is bit-identical to a binary heap's
 * (tests/sim/sched_conformance_test.cc fuzzes this against the heap
 * oracle in tests/oracle/event_heap.hh).
 *
 * A subtlety worth writing down: bucket vectors are always sorted by
 * sequence number, because entries only ever *append* (fresh
 * schedules carry the largest seq yet issued; spills and splits
 * iterate their source in order). The heapify into bottom is what
 * establishes tick order within a bucket's width.
 *
 * That invariant also powers the batched same-tick drain: when a
 * promoted bucket holds a single tick (every width-1 bucket, and any
 * wider bucket or sparse spill that a linear scan finds uniform),
 * its seq-ascending vector IS the exact drain order, so bottom flips
 * into "sorted run" mode — pops walk an index instead of sifting a
 * heap, and events scheduled *at the draining tick* mid-drain (joiner
 * wakeups, barrier releases, frame trains) append in O(1) because
 * their sequence numbers are the largest yet issued. A push for any
 * other tick inside the window demotes the run back into a heap.
 * Same-tick bursts — the dominant population around barriers and
 * message fan-outs — thus cost O(1) per event instead of O(log n).
 *
 * Bucket storage recycles. A drained bucket hands its vector to
 * bottom, bottom's old vector, a split bucket's vector and an
 * exhausted rung's bucket array go onto bounded spare lists, and an
 * empty bucket takes a spare vector on its first append. The steady
 * state therefore spills, splits and refills without calling the
 * allocator; the caps keep a burst's worth of spares from pinning
 * memory for the rest of the run.
 */

#ifndef HOWSIM_SIM_EVENT_LADDER_HH
#define HOWSIM_SIM_EVENT_LADDER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/sched.hh"

namespace howsim::sim
{

/** Ladder-queue event scheduler; see the file comment. */
class EventLadder
{
  public:
    /** Append @p entry to the tier covering its tick. */
    void
    push(SchedEntry entry)
    {
        ++events;
        if (entry.when >= topStart) {
            if (entry.when < topMin)
                topMin = entry.when;
            if (entry.when > topMax)
                topMax = entry.when;
            top.push_back(entry);
            return;
        }
        if (entry.when < bottomLimit) {
            if (bottomSorted) {
                if (entry.when == bottom[bottomPos].when
                    && entry.seq >= bottom.back().seq) {
                    // Fresh schedules carry the largest seq yet (and
                    // the guard admits only in-order keyed seqs), so
                    // appending keeps the run's drain order exact.
                    bottom.push_back(entry);
                    return;
                }
                demoteSortedBottom();
            }
            bottom.push_back(entry);
            std::push_heap(bottom.begin(), bottom.end(), SchedAfter{});
            return;
        }
        pushRung(entry);
    }

    bool empty() const { return events == 0; }

    std::size_t size() const { return events; }

    /**
     * Tick of the earliest pending entry. May promote a bucket into
     * bottom, hence not const. @pre !empty().
     */
    Tick
    minTick()
    {
        if (bottomSorted)
            return bottom[bottomPos].when;
        if (bottom.empty())
            refillBottom();
        return bottomSorted ? bottom[bottomPos].when
                            : bottom.front().when;
    }

    /** Remove and return the earliest key. @pre !empty(). */
    SchedEntry
    pop()
    {
        if (!bottomSorted) {
            if (bottom.empty())
                refillBottom();
            if (!bottomSorted) {
                --events;
                return popBottomHeap();
            }
        }
        // Sorted-run fast path: a plain indexed walk, no sifting.
        SchedEntry entry = bottom[bottomPos];
        if (++bottomPos == bottom.size()) {
            bottom.clear();
            bottomPos = 0;
            bottomSorted = false;
        }
        --events;
        return entry;
    }

    /**
     * Pre-size the far-future tier, where bulk loads land, and the
     * drain window that trades buffers with it on a sparse spill.
     */
    void
    reserve(std::size_t n)
    {
        top.reserve(n);
        bottom.reserve(n);
    }

    /**
     * Note that this queue has seen explicitly-sequenced entries
     * (EventQueue::scheduleWithSeq). Those arrive in push order, not
     * seq order, which voids the "bucket vectors are seq-ascending"
     * invariant; adoptBottom() then verifies a promoted bucket before
     * trusting it as a sorted run. Sticky for the queue's lifetime —
     * keyed workloads stay keyed — so fresh-only queues keep the
     * scan-free fast path.
     */
    void markExplicitSeqs() { explicitSeqs = true; }

    /** Tier occupancy snapshot, for obs probes and tests. */
    struct Occupancy
    {
        std::size_t bottom = 0; //!< events in the drain window
        std::size_t rungs = 0;  //!< live rungs
        std::size_t rungEvents = 0;
        std::size_t top = 0;    //!< events in the overflow tier
    };

    Occupancy occupancy() const;

    /** @name Tuning constants (exposed for the conformance tests) */
    /** @{ */

    /** log2 of the bucket count a spill or split spreads over. */
    static constexpr unsigned spillBucketsLog2 = 7;

    /** Min buckets a spill spreads events over. */
    static constexpr std::size_t spillBuckets = std::size_t{1}
                                                << spillBucketsLog2;

    /** Cap on a spilled rung's bucket count (resize + walk cost). */
    static constexpr std::size_t maxSpillBuckets = std::size_t{1}
                                                   << 16;

    /** Bucket size beyond which draining splits a finer rung. */
    static constexpr std::size_t splitThreshold = 64;

    /** Most spare bucket vectors kept for reuse. */
    static constexpr std::size_t maxSpareBuckets = 1024;

    /** Largest capacity (in entries) a spare bucket vector may keep. */
    static constexpr std::size_t maxSpareCapacity = 4 * splitThreshold;

    /** Most retired rung bucket arrays kept for reuse. */
    static constexpr std::size_t maxSpareArrays = 8;

    /** @} */

  private:
    /**
     * std::pop_heap on bottom, returning the removed root: the same
     * algorithm (walk the hole to a leaf, then sift the old last
     * element up), so the heap layout matches std's exactly, but the
     * child pick is arithmetic rather than a branch. Drain-window
     * ticks are close to random, so that branch mispredicts about
     * half the time, and whether the compiler turns it into a
     * conditional move depends on the inlining context.
     */
    SchedEntry
    popBottomHeap()
    {
        SchedAfter after;
        SchedEntry root = bottom.front();
        SchedEntry value = bottom.back();
        bottom.pop_back();
        const std::size_t len = bottom.size();
        if (len == 0)
            return root;
        std::size_t hole = 0;
        std::size_t child = 0;
        while (child < (len - 1) / 2) {
            child = 2 * (child + 1);
            child -= after(bottom[child], bottom[child - 1]);
            bottom[hole] = bottom[child];
            hole = child;
        }
        if ((len & 1) == 0 && child == (len - 2) / 2) {
            child = 2 * (child + 1);
            bottom[hole] = bottom[child - 1];
            hole = child - 1;
        }
        while (hole > 0) {
            std::size_t parent = (hole - 1) / 2;
            if (!after(bottom[parent], value))
                break;
            bottom[hole] = bottom[parent];
            hole = parent;
        }
        bottom[hole] = value;
        return root;
    }

    using Bucket = std::vector<SchedEntry>;

    struct Rung
    {
        Tick base;          //!< aligned tick of bucket 0
        Tick end;           //!< one past the last covered tick
        unsigned widthLog2; //!< log2 of the bucket tick width
        std::size_t cur = 0;   //!< next bucket to drain
        std::size_t count = 0; //!< events currently in the rung
        std::vector<Bucket> buckets;
    };

    /** Append to @p bucket, giving an empty one a spare vector. */
    void
    append(Bucket &bucket, SchedEntry entry)
    {
        if (bucket.capacity() == 0 && !spareBuckets.empty()) {
            bucket.swap(spareBuckets.back());
            spareBuckets.pop_back();
        }
        bucket.push_back(entry);
    }

    /** Keep @p bucket's storage as a spare (emptied), within the caps. */
    void recycle(Bucket &bucket);

    /** A rung of @p n empty buckets, on a retired array if one is kept. */
    Rung makeRung(Tick base, Tick end, unsigned widthLog2, std::size_t n);

    /** Pop the exhausted rungs.back(), keeping its bucket array. */
    void retireRung();

    void pushRung(SchedEntry entry);
    void refillBottom();
    void spillTop();

    /** Enter heap or sorted-run mode for a freshly promoted bottom. */
    void adoptBottom(bool knownSingleTick);

    /** Leave sorted-run mode: drop served entries, heapify the rest. */
    void demoteSortedBottom();

    std::vector<SchedEntry> bottom; //!< min-heap (SchedAfter order)
    bool explicitSeqs = false; //!< scheduleWithSeq was ever used
    bool bottomSorted = false; //!< bottom is a single-tick seq run
    std::size_t bottomPos = 0; //!< next run entry when bottomSorted
    Tick bottomLimit = 0; //!< bottom covers [0, bottomLimit)
    std::vector<Rung> rungs; //!< [0] widest … back() being drained
    std::vector<SchedEntry> top;
    Tick topStart = 0; //!< top covers [topStart, ∞)
    Tick topMin = maxTick;
    Tick topMax = 0;
    std::size_t events = 0;
    std::vector<Bucket> spareBuckets; //!< empty, with capacity
    std::vector<std::vector<Bucket>> spareArrays; //!< retired rungs'
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_EVENT_LADDER_HH
