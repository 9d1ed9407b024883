/**
 * @file
 * Seek-time model calibrated against published drive figures.
 *
 * The curve has the classical form
 *     seek(d) = a + b * sqrt(d) + c * d      (d = cylinder distance)
 * with coefficients fit so that seek(1) equals the track-to-track
 * time, seek(C-1) equals the full-stroke maximum, and the mean over
 * uniformly random cylinder pairs equals the published average seek —
 * the same three data points DiskSim configurations are calibrated
 * against when only a data sheet is available.
 *
 * The fitted coefficients and per-distance tick tables depend only on
 * (track-to-track, average, maximum, write penalty, cylinders), and a
 * machine's drives are usually identical — 128 Seagate ST39102s in
 * the paper's setup. So one immutable table per distinct parameter
 * set is fitted and shared through a process-wide cache of weak
 * references (mutex-guarded, so concurrent experiments may build
 * drives at once); the table dies with the last curve using it.
 */

#ifndef HOWSIM_DISK_SEEK_CURVE_HH
#define HOWSIM_DISK_SEEK_CURVE_HH

#include <cstdint>
#include <memory>

#include "disk/disk_spec.hh"
#include "sim/ticks.hh"

namespace howsim::disk
{

class SeekCurve
{
  public:
    /**
     * Fit the curve for a drive with @p cylinders cylinders from the
     * spec's track-to-track, average and maximum seek times.
     */
    SeekCurve(const DiskSpec &spec, std::uint32_t cylinders);

    /**
     * Seek time over @p distance cylinders, in ticks. Served from a
     * per-distance lookup table fitted once per drive model — the
     * task suite issues millions of seeks per run, so the hot path
     * is one bounds-free array read instead of a sqrt and two
     * multiplies per request.
     */
    sim::Tick
    seekTicks(std::uint32_t distance, bool write = false) const
    {
        return write ? writeTicks[distance] : readTicks[distance];
    }

    /** Mean seek time over uniform random pairs, in milliseconds. */
    double meanSeekMs() const;

    /** @name Fitted coefficients (milliseconds), for tests. */
    /** @{ */
    double coefA() const;
    double coefB() const;
    double coefC() const;
    /** @} */

    /** Identity of the shared fitted table, for tests. */
    const void *tableIdentity() const { return table.get(); }

  private:
    struct Table;

    std::uint32_t cyls;
    std::shared_ptr<const Table> table;

    /**
     * seekTicks() per cylinder distance, indices [0, cyls), pointing
     * into the shared table. Entry 0 is 0 (no movement). The write
     * table folds in the write-settle penalty before tick rounding,
     * exactly as the formula did.
     */
    const sim::Tick *readTicks;
    const sim::Tick *writeTicks;
};

} // namespace howsim::disk

#endif // HOWSIM_DISK_SEEK_CURVE_HH
