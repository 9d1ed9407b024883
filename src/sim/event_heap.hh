/**
 * @file
 * Reference scheduler policy: a single binary heap.
 *
 * Keys are kept in a plain std::vector driven by the <algorithm>
 * heap primitives. Every schedule and pop sifts O(log n) 24-byte
 * keys (the actions stay in EventQueue's pool), which is what the
 * ladder policy (event_ladder.hh) exists to avoid; the heap remains
 * the oracle the ladder is conformance-tested against.
 */

#ifndef HOWSIM_SIM_EVENT_HEAP_HH
#define HOWSIM_SIM_EVENT_HEAP_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/sched.hh"

namespace howsim::sim
{

/** Binary-heap scheduler policy; see the file comment. */
class EventHeap
{
  public:
    void
    push(SchedEntry entry)
    {
        heap.push_back(entry);
        std::push_heap(heap.begin(), heap.end(), SchedAfter{});
    }

    bool empty() const { return heap.empty(); }

    std::size_t size() const { return heap.size(); }

    /** Tick of the earliest pending entry. @pre !empty(). */
    Tick minTick() const { return heap.front().when; }

    /** Remove and return the earliest key. @pre !empty(). */
    SchedEntry
    pop()
    {
        std::pop_heap(heap.begin(), heap.end(), SchedAfter{});
        SchedEntry entry = heap.back();
        heap.pop_back();
        return entry;
    }

    void reserve(std::size_t n) { heap.reserve(n); }

  private:
    std::vector<SchedEntry> heap;
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_EVENT_HEAP_HH
