/**
 * @file
 * Benchmark program: runs one named workload through howsim's public
 * API (core::runExperiments, traffic::runTraffic and the machine
 * constructors) and prints one raw JSON record of host timings and
 * simulated results as the last line of stdout. perfbench/run.py
 * builds this program, turns the record into metrics and checks it.
 *
 *   howbench run --workload NAME --seed N --seconds T [--trace-dir D]
 *   howbench probe disk.requests=N disk.sectors=S bus.transfers=N
 *                  bus.bytes=B net.messages=N net.bytes=B
 *
 * `run` times the workload repeatedly for about T seconds, and times
 * a benchmark-owned reference kernel before every operation on the
 * thread that runs it, so that operation times can be taken relative
 * to the host's speed at the time. With --trace-dir it instead runs
 * the workload once untraced and once with HOWSIM_METRICS pointed at
 * D/metrics, and writes the benchmark's own host-time spans to
 * D/spans.json (Chrome trace JSON, loadable in Perfetto). `probe`
 * drives one device of each class standalone in a fresh Simulator and
 * reports host ns per operation.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/cluster_machine.hh"
#include "bus/bus.hh"
#include "core/experiment.hh"
#include "core/runner.hh"
#include "disk/disk.hh"
#include "diskos/active_disk_array.hh"
#include "net/network.hh"
#include "obs/trace_sink.hh"
#include "sim/simulator.hh"
#include "smp/smp_machine.hh"
#include "traffic/driver.hh"
#include "workload/task_kind.hh"

using namespace howsim;
using core::Arch;
using core::ExperimentConfig;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Minimal JSON text builder; commas are inserted automatically. */
class Json
{
  public:
    Json &
    open(char bracket)
    {
        comma();
        text += bracket;
        fresh = true;
        return *this;
    }

    Json &
    close(char bracket)
    {
        text += bracket;
        fresh = false;
        return *this;
    }

    Json &
    key(const std::string &k)
    {
        comma();
        quote(k);
        text += ':';
        fresh = true;
        return *this;
    }

    Json &
    str(const std::string &v)
    {
        comma();
        quote(v);
        return *this;
    }

    Json &
    num(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(buf);
    }

    Json &
    u64(std::uint64_t v)
    {
        return raw(std::to_string(v));
    }

    Json &
    boolean(bool v)
    {
        return raw(v ? "true" : "false");
    }

    const std::string &get() const { return text; }

  private:
    Json &
    raw(const std::string &v)
    {
        comma();
        text += v;
        return *this;
    }

    void
    comma()
    {
        if (!fresh && !text.empty())
            text += ',';
        fresh = false;
    }

    void
    quote(const std::string &s)
    {
        text += '"';
        for (char c : s) {
            if (c == '"' || c == '\\') {
                text += '\\';
                text += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                text += buf;
            } else {
                text += c;
            }
        }
        text += '"';
    }

    std::string text;
    bool fresh = true;
};

/** One operation: an experiment or a traffic run, with its timing. */
struct Op
{
    std::string id;
    bool ok = false;
    std::string error;
    int worker = 0;
    double startS = 0; //!< host seconds since the process started
    double hostS = 0;
    double refS = 0; //!< reference kernel just before, on this thread
    bool isTraffic = false;
    tasks::TaskResult exp;
    traffic::TrafficResult tr;
};

struct Section
{
    std::string name;
    double startS = 0;
    double wallS = 0;
    std::uint64_t events = 0; //!< simulator events executed in the pass
    int jobs = 1;
    std::vector<Op> ops;
};

struct MachineKind
{
    Arch arch;
    int scale;
};

struct Workload
{
    std::vector<ExperimentConfig> batch; //!< run by runExperiments
    int jobs = 1;
    std::vector<ExperimentConfig> traffic; //!< run by runTraffic
    /** Reference-kernel events run before each timed operation:
     *  about an eighth of a mean operation on a quiet host. */
    std::uint64_t refEvents = 0;
};

const Arch allArchs[] = {Arch::ActiveDisk, Arch::Cluster, Arch::Smp};

std::string
opId(const ExperimentConfig &c, const std::string &what)
{
    return core::archName(c.arch) + "/" + what + "/"
           + std::to_string(c.scale);
}

std::vector<ExperimentConfig>
slice(const std::vector<int> &scales, const std::vector<Arch> &archs)
{
    std::vector<ExperimentConfig> configs;
    for (int scale : scales) {
        for (auto task : workload::allTasks) {
            for (auto arch : archs) {
                ExperimentConfig c;
                c.arch = arch;
                c.task = task;
                c.scale = scale;
                configs.push_back(c);
            }
        }
    }
    return configs;
}

/** The 128-disk Active Disk and cluster slices of Figure 1. */
std::vector<ExperimentConfig>
serial128Slice()
{
    return slice({128}, {Arch::ActiveDisk, Arch::Cluster});
}

int
hostJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

const std::uint64_t trafficPlansPerArch = 4;

std::string
trafficPlan(std::uint64_t seed)
{
    return "seed=" + std::to_string(seed)
           + ",loop=open,arrival=poisson,rate=3,duration.ms=120000,"
             "max.inflight=4,mix.select=4,mix.groupby=2,mix.join=1,"
             "cap.select=0.002,cap.groupby=0.002,cap.join=0.001";
}

std::string
faultPlan(std::uint64_t seed)
{
    return "seed=" + std::to_string(seed)
           + ",disk.media.rate=5e-3,disk.remap.rate=1e-3,"
             "net.drop.rate=1e-3,stop.disk=1,stop.at.ms=30000,"
             "stop.restart.ms=60000,hb.period.ms=5";
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    if (name == "fig_batch") {
        w.batch = slice({16, 128},
                        {Arch::ActiveDisk, Arch::Cluster, Arch::Smp});
        w.jobs = hostJobs();
        w.refEvents = 800000;
    } else if (name == "serial128") {
        w.batch = serial128Slice();
        w.jobs = 1;
        w.refEvents = 250000;
    } else if (name == "traffic_faulted") {
        // Several plans per machine, each with its own seed drawn
        // from the workload seed, so that one pass's work (set mostly
        // by how many joins the mix draws) varies little from seed to
        // seed.
        for (std::uint64_t k = 0; k < trafficPlansPerArch; ++k) {
            for (auto arch : allArchs) {
                ExperimentConfig c;
                c.arch = arch;
                c.scale = 64;
                std::uint64_t s
                    = seed * trafficPlansPerArch * std::size(allArchs)
                      + w.traffic.size();
                c.traffic = trafficPlan(s);
                c.faults = faultPlan(s);
                w.traffic.push_back(c);
            }
        }
        w.refEvents = 800000;
    } else {
        throw std::invalid_argument(
            "unknown workload \"" + name
            + "\" (accepted: fig_batch, serial128, traffic_faulted)");
    }
    return w;
}

/** Build and destroy one machine exactly as runExperiment sizes it. */
void
buildMachine(const MachineKind &m)
{
    auto drive = disk::DiskSpec::seagateSt39102();
    sim::Simulator simulator;
    switch (m.arch) {
      case Arch::ActiveDisk: {
        diskos::ActiveDiskArray machine(simulator, m.scale, drive);
        return;
      }
      case Arch::Cluster: {
        arch::ClusterMachine machine(simulator, m.scale, drive);
        return;
      }
      case Arch::Smp: {
        smp::SmpMachine machine(simulator, m.scale, m.scale, drive);
        return;
      }
    }
}

/**
 * Benchmark-owned reference kernel: a small discrete-event loop (a
 * binary-heap event queue, one heap-allocated record per event and
 * scattered reads and writes over a 4 MiB entity table) that uses no
 * howsim code. Its time, taken on the same thread just before each
 * operation, is the host's speed at that moment; operation times over
 * it compare across hosts and across busy and quiet periods of a
 * shared host. Returns a checksum so that the loop cannot be
 * optimised away.
 */
std::uint64_t
referenceKernel(std::uint64_t events)
{
    struct Event
    {
        std::uint64_t when;
        std::uint32_t entity;
        bool operator>(const Event &o) const { return when > o.when; }
    };
    const std::uint32_t entities = 1u << 16;
    const std::uint32_t words = 8; // 64 bytes per entity
    std::vector<std::uint64_t> table(std::size_t{entities} * words, 1);
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        queue;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (std::uint32_t i = 0; i < 4096; ++i)
        queue.push({next() % 1000, static_cast<std::uint32_t>(
                                       next() % entities)});
    std::uint64_t sum = 0;
    for (std::uint64_t n = 0; n < events; ++n) {
        Event ev = queue.top();
        queue.pop();
        auto record = std::make_unique<std::uint64_t[]>(6);
        std::uint64_t *row = &table[std::size_t{ev.entity} * words];
        record[0] = row[ev.when % words] + ev.when;
        row[(ev.when + 1) % words] = record[0];
        sum += record[0];
        std::uint64_t r = next();
        queue.push({ev.when + 1 + r % 1000,
                    static_cast<std::uint32_t>((r >> 20) % entities)});
    }
    return sum;
}

/** Host seconds of one reference-kernel run on the calling thread. */
double
timeReference(std::uint64_t events)
{
    static volatile std::uint64_t sink = 0;
    auto s = Clock::now();
    sink = sink + referenceKernel(events);
    return secondsBetween(s, Clock::now());
}

/** Record a host-time span; the sink's ticks are host nanoseconds. */
void
span(obs::TraceSink &sink, const std::string &track, std::string name,
     double startS, double durS)
{
    sink.complete(sink.track(track), std::move(name), "bench",
                  static_cast<sim::Tick>(startS * 1e9),
                  static_cast<sim::Tick>(durS * 1e9));
}

class Bench
{
  public:
    explicit Bench(Workload w) : work(std::move(w))
    {
        auto add = [&](const ExperimentConfig &c) {
            for (const auto &m : machines)
                if (m.arch == c.arch && m.scale == c.scale)
                    return;
            machines.push_back({c.arch, c.scale});
        };
        for (const auto &c : work.batch)
            add(c);
        for (const auto &c : work.traffic)
            add(c);
    }

    double now() const { return secondsBetween(t0, Clock::now()); }

    std::uint64_t machineCount() const { return machines.size(); }

    /** One untimed reference-kernel run (allocator warm-up). */
    void warmReference() const { timeReference(work.refEvents); }

    /** Drop the traffic fault plans (the fault-free baseline). */
    void
    withoutFaults()
    {
        for (auto &c : work.traffic)
            c.faults.clear();
    }

    /**
     * Construct and destroy every distinct machine @p rounds times
     * after one warm-up round; returns the per-round sums.
     */
    std::vector<double>
    setup(int rounds, obs::TraceSink *spans)
    {
        std::vector<double> sums;
        for (int r = -1; r < rounds; ++r) {
            double sum = 0;
            for (const auto &m : machines) {
                double s = now();
                buildMachine(m);
                double d = now() - s;
                sum += d;
                if (spans) {
                    span(*spans, "setup",
                         "build " + core::archName(m.arch) + "/"
                             + std::to_string(m.scale),
                         s, d);
                }
            }
            if (r >= 0)
                sums.push_back(sum);
        }
        return sums;
    }

    /**
     * One pass over the workload's operations; with @p reference,
     * each operation is preceded by the reference kernel on the thread
     * that runs it.
     */
    Section
    pass(const std::string &name, bool reference = false)
    {
        std::uint64_t ref = reference ? work.refEvents : 0;
        return measure(name, [&](Section &sec) {
            if (!work.batch.empty()) {
                sec.jobs = work.jobs;
                sec.ops = runBatch(work.batch, work.jobs, ref);
            }
            for (const auto &c : work.traffic)
                sec.ops.push_back(runTrafficOp(c, ref));
        });
    }

    /** The serial128 slice at jobs = 1 (fig_batch's reference). */
    Section
    serialReference()
    {
        return measure("reference", [&](Section &sec) {
            sec.ops = runBatch(serial128Slice(), 1);
        });
    }

  private:
    /** Time @p body, which fills in the section's operations. */
    template <typename Body>
    Section
    measure(const std::string &name, Body body)
    {
        Section sec;
        sec.name = name;
        sec.startS = now();
        std::uint64_t events0 = sim::totalEventsExecuted();
        body(sec);
        sec.wallS = now() - sec.startS;
        sec.events = sim::totalEventsExecuted() - events0;
        return sec;
    }

    std::vector<Op>
    runBatch(const std::vector<ExperimentConfig> &configs, int jobs,
             std::uint64_t ref = 0)
    {
        std::vector<Op> ops(configs.size());
        std::mutex lock;
        std::map<std::thread::id, int> workers;
        // The runOne seam hands back configs[i] itself, so its index
        // locates the slot this call owns.
        auto runOne = [&](const ExperimentConfig &c) {
            Op &op = ops[static_cast<std::size_t>(&c - configs.data())];
            op.id = opId(c, workload::taskName(c.task));
            {
                std::lock_guard<std::mutex> guard(lock);
                op.worker = workers
                                .emplace(std::this_thread::get_id(),
                                         static_cast<int>(workers.size()))
                                .first->second;
            }
            if (ref)
                op.refS = timeReference(ref);
            op.startS = now();
            try {
                op.exp = core::runExperiment(c);
                op.ok = true;
            } catch (const std::exception &e) {
                op.error = e.what();
            }
            op.hostS = now() - op.startS;
            return op.exp;
        };
        core::runExperiments(configs, runOne, jobs);
        return ops;
    }

    Op
    runTrafficOp(const ExperimentConfig &c, std::uint64_t ref)
    {
        Op op;
        op.id = opId(c, "traffic") + "/"
                + c.traffic.substr(0, c.traffic.find(','));
        op.isTraffic = true;
        if (ref)
            op.refS = timeReference(ref);
        op.startS = now();
        try {
            op.tr = traffic::runTraffic(c);
            op.ok = true;
        } catch (const std::exception &e) {
            op.error = e.what();
        }
        op.hostS = now() - op.startS;
        return op;
    }

    Workload work;
    std::vector<MachineKind> machines; //!< distinct, in first-use order
    Clock::time_point t0 = Clock::now();
};

void
emitOp(Json &j, const Op &op)
{
    j.open('{');
    j.key("id").str(op.id);
    j.key("ok").boolean(op.ok);
    if (!op.ok)
        j.key("error").str(op.error);
    j.key("worker").u64(static_cast<std::uint64_t>(op.worker));
    j.key("start_s").num(op.startS);
    j.key("host_s").num(op.hostS);
    if (op.refS > 0)
        j.key("ref_s").num(op.refS);
    if (op.isTraffic) {
        const auto &r = op.tr;
        j.key("submitted").u64(r.submitted);
        j.key("completed").u64(r.completed);
        j.key("rejected").u64(r.rejected);
        j.key("retried").u64(r.retried);
        j.key("shed").u64(r.shed);
        j.key("peak_inflight").u64(static_cast<std::uint64_t>(
            r.peakInflight));
        j.key("peak_queued").u64(r.peakQueued);
        j.key("last_completion_ticks").u64(r.lastCompletion);
        char fp[24];
        std::snprintf(fp, sizeof fp, "%016" PRIx64, r.fingerprint);
        j.key("fingerprint").str(fp);
        j.key("classes").open('[');
        for (const auto &c : r.classes) {
            j.open('{');
            j.key("task").str(workload::taskName(c.task));
            j.key("completed").u64(c.completed);
            j.key("p50_ticks").u64(c.p50);
            j.key("p99_ticks").u64(c.p99);
            j.close('}');
        }
        j.close(']');
    } else {
        const auto &r = op.exp;
        j.key("elapsed_ticks").u64(r.elapsedTicks);
        j.key("output_bytes").u64(r.outputBytes);
        j.key("interconnect_bytes").u64(r.interconnectBytes);
        j.key("buckets").open('{');
        for (const auto &[name, v] : r.buckets.all())
            j.key(name).num(v);
        j.close('}');
    }
    j.close('}');
}

void
emitSection(Json &j, const Section &sec)
{
    j.open('{');
    j.key("name").str(sec.name);
    j.key("start_s").num(sec.startS);
    j.key("wall_s").num(sec.wallS);
    j.key("events").u64(sec.events);
    j.key("jobs").u64(static_cast<std::uint64_t>(sec.jobs));
    j.key("ops").open('[');
    for (const auto &op : sec.ops)
        emitOp(j, op);
    j.close(']');
    j.close('}');
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ',
                                                          colon + 1));
        }
    }
    return "unknown";
}

void
emitHost(Json &j)
{
    j.key("host").open('{');
    j.key("nproc").u64(static_cast<std::uint64_t>(hostJobs()));
    j.key("cpu").str(cpuModel());
#if defined(__clang__)
    j.key("compiler").str(std::string("clang ") + __clang_version__);
#else
    j.key("compiler").str(std::string("gcc ") + __VERSION__);
#endif
    j.key("build_type").str(HOWBENCH_BUILD_TYPE);
    j.close('}');
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

int
runMode(const std::map<std::string, std::string> &args)
{
    auto need = [&](const char *k) {
        auto it = args.find(k);
        if (it == args.end())
            throw std::invalid_argument(std::string("missing --") + k);
        return it->second;
    };
    std::string name = need("workload");
    std::uint64_t seed = std::stoull(need("seed"));
    double seconds = std::stod(need("seconds"));
    auto traceIt = args.find("trace-dir");
    bool traced = traceIt != args.end();

    Bench bench(makeWorkload(name, seed));
    obs::TraceSink spans;
    obs::TraceSink *log = traced ? &spans : nullptr;
    const int setupRounds = 30;
    std::vector<double> setup = bench.setup(setupRounds, log);

    // Peak RSS is read after the first pass: later passes reuse the
    // allocator's cached arenas unevenly, so their peak says more
    // about thread interleaving than about the workload.
    double rss = 0;
    std::vector<Section> sections;
    double measureStart = bench.now();
    if (traced) {
        sections.push_back(bench.pass("untraced"));
        rss = peakRssMb();
        std::string dir = traceIt->second + "/metrics";
        setenv("HOWSIM_METRICS", dir.c_str(), 1);
        sections.push_back(bench.pass("traced"));
        unsetenv("HOWSIM_METRICS");
        if (name == "traffic_faulted") {
            bench.withoutFaults();
            sections.push_back(bench.pass("fault_free"));
        }
        if (name == "fig_batch")
            sections.push_back(bench.serialReference());
    } else {
        // Start another pass only while it is expected to end within
        // the measuring window; the first pass always runs.
        bench.warmReference();
        do {
            sections.push_back(bench.pass("timed", true));
            if (sections.size() == 1)
                rss = peakRssMb();
        } while (bench.now() - measureStart + sections.back().wallS
                 <= seconds);
    }

    if (traced) {
        for (const auto &sec : sections) {
            span(spans, "workload", name + " " + sec.name, sec.startS,
                 sec.wallS);
            for (const auto &op : sec.ops) {
                span(spans,
                     op.isTraffic ? std::string("traffic")
                                  : "worker " + std::to_string(op.worker),
                     op.id, op.startS, op.hostS);
            }
        }
        std::string path = traceIt->second + "/spans.json";
        std::ofstream out(path);
        spans.writeJson(out, name);
        if (!out)
            throw std::runtime_error("cannot write " + path);
    }

    Json j;
    j.open('{');
    j.key("workload").str(name);
    j.key("seed").u64(seed);
    emitHost(j);
    j.key("setup_round_s").open('[');
    for (double s : setup)
        j.num(s);
    j.close(']');
    j.key("machines").u64(bench.machineCount());
    j.key("peak_rss_mb").num(rss);
    j.key("sections").open('[');
    for (const auto &sec : sections)
        emitSection(j, sec);
    j.close(']');
    j.close('}');
    std::printf("%s\n", j.get().c_str());
    return 0;
}

/** Host ns per op of @p body, which performs @p ops operations. */
template <typename Body>
double
timeProbe(std::uint64_t ops, Body body)
{
    auto s = Clock::now();
    body();
    return secondsBetween(s, Clock::now()) * 1e9
           / static_cast<double>(std::max<std::uint64_t>(ops, 1));
}

double
probeDisk(std::uint64_t requests, std::uint32_t sectors)
{
    sim::Simulator simulator;
    disk::Disk drive(simulator, disk::DiskSpec::seagateSt39102());
    return timeProbe(requests, [&] {
        auto body = [&]() -> sim::Coro<void> {
            std::uint64_t limit
                = drive.geometry().totalSectors() - sectors;
            std::uint64_t lba = 0;
            for (std::uint64_t i = 0; i < requests; ++i) {
                co_await drive.access(
                    disk::DiskRequest{lba, sectors, false});
                lba = lba + sectors > limit ? 0 : lba + sectors;
            }
        };
        simulator.spawn(body());
        simulator.run();
    });
}

double
probeBus(std::uint64_t transfers, std::uint64_t bytes)
{
    sim::Simulator simulator;
    bus::Bus fc(simulator, bus::BusParams::fibreChannel(200e6));
    const std::uint64_t senders = 8;
    return timeProbe(transfers, [&] {
        auto body = [&](std::uint64_t n) -> sim::Coro<void> {
            for (std::uint64_t i = 0; i < n; ++i)
                co_await fc.transfer(bytes);
        };
        for (std::uint64_t s = 0; s < senders; ++s)
            simulator.spawn(body(transfers / senders
                                 + (s < transfers % senders)));
        simulator.run();
    });
}

double
probeNet(std::uint64_t messages, std::uint64_t bytes)
{
    sim::Simulator simulator;
    const int hosts = 16;
    net::Network fabric(simulator, hosts);
    return timeProbe(messages, [&] {
        auto body = [&](int src, std::uint64_t n) -> sim::Coro<void> {
            for (std::uint64_t i = 0; i < n; ++i)
                co_await fabric.transport(src, (src + hosts / 2) % hosts,
                                          bytes);
        };
        for (int s = 0; s < hosts; ++s) {
            auto u = static_cast<std::uint64_t>(s);
            simulator.spawn(body(s, messages / hosts
                                        + (u < messages % hosts)));
        }
        simulator.run();
    });
}

int
probeMode(const std::map<std::string, std::string> &args)
{
    auto get = [&](const char *k) -> std::uint64_t {
        auto it = args.find(k);
        if (it == args.end())
            throw std::invalid_argument(std::string("missing ") + k);
        return std::stoull(it->second);
    };
    auto sectors = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(get("disk.sectors"), 1));
    Json j;
    j.open('{');
    j.key("disk_ns_per_request")
        .num(probeDisk(get("disk.requests"), sectors));
    j.key("bus_ns_per_transfer")
        .num(probeBus(get("bus.transfers"), get("bus.bytes")));
    j.key("net_ns_per_message")
        .num(probeNet(get("net.messages"), get("net.bytes")));
    j.close('}');
    std::printf("%s\n", j.get().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: howbench run --workload NAME --seed N "
                     "--seconds T [--trace-dir DIR]\n"
                     "       howbench probe key=value...\n");
        return 2;
    }
    std::string mode = argv[1];
    std::map<std::string, std::string> args;
    try {
        for (int i = 2; i < argc; ++i) {
            std::string a = argv[i];
            if (mode == "run") {
                if (a.rfind("--", 0) != 0 || i + 1 >= argc)
                    throw std::invalid_argument("bad argument " + a);
                args[a.substr(2)] = argv[++i];
            } else {
                auto eq = a.find('=');
                if (eq == std::string::npos)
                    throw std::invalid_argument("bad argument " + a);
                args[a.substr(0, eq)] = a.substr(eq + 1);
            }
        }
        if (mode == "run")
            return runMode(args);
        if (mode == "probe")
            return probeMode(args);
        throw std::invalid_argument("unknown mode " + mode);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "howbench: %s\n", e.what());
        return 2;
    }
}
