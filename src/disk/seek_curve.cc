#include "disk/seek_curve.hh"

#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "sim/logging.hh"

namespace howsim::disk
{

struct SeekCurve::Table
{
    double a = 0, b = 0, c = 0;
    std::vector<sim::Tick> readTicks;
    std::vector<sim::Tick> writeTicks;

    Table(const DiskSpec &spec, std::uint32_t cylinders);

    double
    evalMs(std::uint32_t distance) const
    {
        if (distance == 0)
            return 0.0;
        return a + b * std::sqrt(static_cast<double>(distance))
               + c * static_cast<double>(distance);
    }
};

SeekCurve::Table::Table(const DiskSpec &spec, std::uint32_t cylinders)
{
    const double t2t = spec.trackToTrackMs;
    const double avg = spec.avgSeekMs;
    const double max = spec.maxSeekMs;
    const double big = static_cast<double>(cylinders - 1);

    // Moments of the cylinder-distance distribution for uniformly
    // random pairs: P(d) = 2(C-d) / (C(C-1)), d in [1, C-1].
    const double c_d = static_cast<double>(cylinders);
    double e_d = 0, e_sqrt = 0;
    for (std::uint32_t d = 1; d < cylinders; ++d) {
        double p = 2.0 * (c_d - d) / (c_d * (c_d - 1.0));
        e_d += p * d;
        e_sqrt += p * std::sqrt(static_cast<double>(d));
    }

    // Solve seek(1)=t2t, seek(C-1)=max, E[seek]=avg for (a, b, c) in
    // seek(d) = a + b sqrt(d) + c d.
    // Substituting a = t2t - b - c leaves a 2x2 system.
    const double m11 = std::sqrt(big) - 1.0, m12 = big - 1.0;
    const double m21 = e_sqrt - 1.0, m22 = e_d - 1.0;
    const double r1 = max - t2t, r2 = avg - t2t;
    const double det = m11 * m22 - m12 * m21;
    if (std::abs(det) < 1e-12)
        panic("SeekCurve: singular calibration system");
    b = (r1 * m22 - r2 * m12) / det;
    c = (m11 * r2 - m21 * r1) / det;
    a = t2t - b - c;

    if (b < 0 || c < 0) {
        warn("SeekCurve for '%s': non-monotone fit (b=%f c=%f); "
             "check the spec's seek figures", spec.name.c_str(), b, c);
    }

    // Flatten the curve into per-distance tick tables. The math per
    // entry is identical to the on-demand formula (evaluate in ms,
    // add the write penalty, then round to ticks once), so tabulated
    // results are bit-identical to what interpolation produced.
    readTicks.resize(cylinders);
    writeTicks.resize(cylinders);
    readTicks[0] = 0;
    writeTicks[0] = 0;
    for (std::uint32_t d = 1; d < cylinders; ++d) {
        double ms = evalMs(d);
        readTicks[d] = sim::fromSeconds(ms * 1e-3);
        writeTicks[d] =
            sim::fromSeconds((ms + spec.writeSeekPenaltyMs) * 1e-3);
    }
}

namespace
{

/**
 * Everything a fitted table depends on. Doubles are keyed by their
 * bit patterns, so the ordering stays strict even for a NaN.
 */
using TableKey = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                            std::uint64_t, std::uint32_t>;

TableKey
tableKey(const DiskSpec &spec, std::uint32_t cylinders)
{
    return {std::bit_cast<std::uint64_t>(spec.trackToTrackMs),
            std::bit_cast<std::uint64_t>(spec.avgSeekMs),
            std::bit_cast<std::uint64_t>(spec.maxSeekMs),
            std::bit_cast<std::uint64_t>(spec.writeSeekPenaltyMs),
            cylinders};
}

} // namespace

SeekCurve::SeekCurve(const DiskSpec &spec, std::uint32_t cylinders)
    : cyls(cylinders)
{
    if (cylinders < 3)
        panic("SeekCurve needs at least 3 cylinders");

    // Tables live as long as some curve holds them; the cache only
    // remembers them. Fitting under the lock means concurrent
    // constructions of one model wait for, then share, one table.
    static std::mutex mutex;
    static std::map<TableKey, std::weak_ptr<const Table>> cache;
    const TableKey key = tableKey(spec, cylinders);
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (auto it = cache.find(key); it != cache.end())
            table = it->second.lock();
        if (!table) {
            std::erase_if(cache, [](const auto &kv) {
                return kv.second.expired();
            });
            table = std::make_shared<const Table>(spec, cylinders);
            cache[key] = table;
        }
    }
    readTicks = table->readTicks.data();
    writeTicks = table->writeTicks.data();
}

double
SeekCurve::coefA() const
{
    return table->a;
}

double
SeekCurve::coefB() const
{
    return table->b;
}

double
SeekCurve::coefC() const
{
    return table->c;
}

double
SeekCurve::meanSeekMs() const
{
    const double c_d = static_cast<double>(cyls);
    double mean = 0;
    for (std::uint32_t d = 1; d < cyls; ++d) {
        double p = 2.0 * (c_d - d) / (c_d * (c_d - 1.0));
        mean += p * table->evalMs(d);
    }
    return mean;
}

} // namespace howsim::disk
