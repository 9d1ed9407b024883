/**
 * @file
 * Ladder-queue scheduler policy: amortized O(1) schedule and pop.
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
 * tiers hold 24-byte SchedEntry keys only — the actions stay in
 * EventQueue's slot pool — so appends, spills, splits and sifts copy
 * three words per event. Ordering is exact, not approximate:
 * bottom is a strict (tick, seq) priority queue, and the tier ranges
 * are contiguous and disjoint, so the head of bottom is always the
 * global minimum. Drain order is bit-identical to EventHeap
 * (tests/sim/sched_conformance_test.cc fuzzes this).
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

/** Ladder-queue scheduler policy; see the file comment. */
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
                std::pop_heap(bottom.begin(), bottom.end(),
                              SchedAfter{});
                SchedEntry entry = bottom.back();
                bottom.pop_back();
                --events;
                return entry;
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

    /** @} */

  private:
    struct Rung
    {
        Tick base;          //!< aligned tick of bucket 0
        Tick end;           //!< one past the last covered tick
        unsigned widthLog2; //!< log2 of the bucket tick width
        std::size_t cur = 0;   //!< next bucket to drain
        std::size_t count = 0; //!< events currently in the rung
        std::vector<std::vector<SchedEntry>> buckets;
    };

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
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_EVENT_LADDER_HH
