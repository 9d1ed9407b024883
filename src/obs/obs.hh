/**
 * @file
 * Observability session and the enabled() guard.
 *
 * A Session bundles the three collectors — MetricRegistry, TraceSink,
 * Timeline — for one simulation run, and owns where their output
 * lands. Nothing in the simulator observes unconditionally: every
 * instrumentation site first asks obs::session(), which is
 *
 *  - compile-time false (and everything folds away) when built with
 *    -DHOWSIM_OBS_COMPILED=0, and
 *  - a single thread-local pointer read otherwise,
 *
 * so the disabled path costs one predictable branch. Components that
 * sit on the event-loop hot path go further and cache the metric
 * pointers they need at construction time (null when no session was
 * active), making their per-event cost a null check.
 *
 * Sessions are per-thread, like sim::Simulator::current(): the
 * parallel experiment runner gives each worker its own Session, each
 * of which writes its own uniquely named files at dump() — that is
 * the whole thread-safety story, there is no shared mutable state.
 *
 * Session::fromEnv() is the one policy point: it returns a live
 * session only when HOWSIM_TRACE_DIR and/or HOWSIM_METRICS is set,
 * so every bench and example is traceable without code changes and
 * costs nothing when the switches are absent.
 */

#ifndef HOWSIM_OBS_OBS_HH
#define HOWSIM_OBS_OBS_HH

#include <memory>
#include <string>

#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "obs/trace_sink.hh"
#include "sim/ticks.hh"

/**
 * Compile-time master switch. Building with -DHOWSIM_OBS_COMPILED=0
 * turns every obs::session() query into a constant nullptr, letting
 * the optimizer delete all instrumentation.
 */
#ifndef HOWSIM_OBS_COMPILED
#define HOWSIM_OBS_COMPILED 1
#endif

namespace howsim::obs
{

/** How much to record; Fine adds high-volume spans (disklet compute,
 * per-frame processes) on top of the Coarse defaults. */
enum class Detail
{
    Coarse,
    Fine,
};

/** One run's collectors + output policy; see the file comment. */
class Session
{
  public:
    struct Options
    {
        std::string traceDir;   //!< trace JSON dir; empty = no trace
        std::string metricsDir; //!< metrics JSON dir; empty = none
        sim::Tick sampleInterval = sim::milliseconds(10);
        Detail detail = Detail::Coarse;
    };

    /** Install as the calling thread's session. */
    Session(std::string label, Options options);

    /** Dumps (if not already dumped) and uninstalls. */
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Build a session from HOWSIM_TRACE_DIR / HOWSIM_METRICS /
     * HOWSIM_TRACE_DETAIL (coarse|fine) / HOWSIM_OBS_INTERVAL_US.
     * Returns null — observability fully off — when neither output
     * switch is set or obs is compiled out.
     */
    static std::unique_ptr<Session> fromEnv(std::string label);

    MetricRegistry &metrics() { return registry; }
    TraceSink &trace() { return sink; }
    Timeline &timeline() { return sampler; }

    const std::string &label() const { return name; }
    bool fine() const { return opts.detail == Detail::Fine; }

    /**
     * Point now() at a simulator's clock. Returns the previously
     * bound clock so nested simulators can restore it.
     */
    const sim::Tick *
    bindClock(const sim::Tick *c)
    {
        const sim::Tick *old = clock;
        clock = c;
        return old;
    }

    /** Current simulated time, or 0 when no simulator is bound. */
    sim::Tick now() const { return clock ? *clock : 0; }

    /**
     * Write the trace/metrics files (idempotent) and drop timeline
     * probes, so components registered with the sampler may safely
     * die afterwards. Call while the instrumented components are
     * still alive; the destructor calls it as a fallback.
     */
    void dump();

  private:
    std::string name;
    Options opts;
    MetricRegistry registry;
    TraceSink sink;
    Timeline sampler;
    const sim::Tick *clock = nullptr;
    Session *prev = nullptr;
    bool dumped = false;
};

namespace detail_tls
{
/**
 * constinit tells every including TU that the variable has no dynamic
 * initializer, so the compiler reads it directly instead of through a
 * TLS wrapper function (whose null-initializer probe UBSan flags).
 */
extern constinit thread_local Session *tlsSession;
} // namespace detail_tls

/** True unless built with -DHOWSIM_OBS_COMPILED=0. */
constexpr bool
compiledIn()
{
    return HOWSIM_OBS_COMPILED != 0;
}

/** The calling thread's active session, or null. The one guard every
 * instrumentation site goes through. */
inline Session *
session()
{
    if constexpr (!compiledIn())
        return nullptr;
    return detail_tls::tlsSession;
}

/** Is any observability active on this thread? */
inline bool
enabled()
{
    return session() != nullptr;
}

/**
 * RAII duration slice: emits one complete event on @p trackName
 * covering construction to destruction. No-op (one branch, no
 * allocation for short names) without an active session. Intended
 * for cold call sites — phases, whole tasks; hot paths should cache
 * pointers instead.
 */
class Span
{
  public:
    /**
     * Literal-name overload: the name is not copied into a string
     * unless a session is active, keeping the disabled path free of
     * any std::string construction at the call site.
     */
    Span(const char *trackName, const char *spanName,
         const char *cat = "span")
        : sess(session())
    {
        if (sess)
            init(trackName, spanName, cat);
    }

    Span(const char *trackName, std::string spanName,
         const char *cat = "span")
        : sess(session())
    {
        if (!sess)
            return;
        init(trackName, nullptr, cat);
        labelOwned = new std::string(std::move(spanName));
    }

    ~Span()
    {
        if (sess)
            finish();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    bool active() const { return sess != nullptr; }

  private:
    void init(const char *trackName, const char *lit, const char *cat);

    void finish();

    // All members are scalar, and an inactive span writes `sess`
    // alone: the rest are set by init() and read only while `sess`
    // is non-null. With init() and finish() out of line, the
    // disabled path is the session() read, one store and the two
    // branches — on a coroutine delay chain, skipping the other
    // five stores halves the guard's share of an event.
    Session *sess;
    TraceSink::TrackId tid;
    sim::Tick start;
    const char *labelLit;
    std::string *labelOwned; //!< only when a string was given
    const char *category;
};

} // namespace howsim::obs

#endif // HOWSIM_OBS_OBS_HH
