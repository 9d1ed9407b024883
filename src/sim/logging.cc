#include "sim/logging.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <mutex>
#include <vector>

#include <unistd.h>

namespace howsim
{

LogLevel
logLevelFromEnv()
{
    const char *env = std::getenv("HOWSIM_LOG_LEVEL");
    if (!env)
        return LogLevel::Info;
    std::string v(env);
    if (v == "quiet")
        return LogLevel::Quiet;
    if (v == "warn")
        return LogLevel::Warn;
    if (v == "info")
        return LogLevel::Info;
    fatal("unknown HOWSIM_LOG_LEVEL=\"%s\": expected \"quiet\", "
          "\"warn\", or \"info\"",
          env);
}

namespace
{

LogLevel &
levelRef()
{
    static LogLevel level = logLevelFromEnv();
    return level;
}

std::string
vstrprintf(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(len));
}

} // namespace

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    return s;
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Warn)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Info)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

LogLevel
logLevel()
{
    return levelRef();
}

void
setLogLevel(LogLevel level)
{
    levelRef() = level;
}

void
setQuiet(bool quiet)
{
    levelRef() = quiet ? LogLevel::Quiet : LogLevel::Info;
}

void
checkEnvNames()
{
    // Every HOWSIM_* variable any howsim binary reads; keep sorted.
    static const char *const accepted[] = {
        "HOWSIM_BENCH_JSON",
        "HOWSIM_CSV_DIR",
        "HOWSIM_FAULTS",
        "HOWSIM_JOBS",
        "HOWSIM_LOG_LEVEL",
        "HOWSIM_METRICS",
        "HOWSIM_OBS_INTERVAL_US",
        "HOWSIM_TRACE_DETAIL",
        "HOWSIM_TRACE_DIR",
        "HOWSIM_TRAFFIC",
    };
    for (char **env = environ; *env; ++env) {
        if (std::strncmp(*env, "HOWSIM_", 7) != 0)
            continue;
        std::string name(*env, std::strcspn(*env, "="));
        if (std::find(std::begin(accepted), std::end(accepted), name)
            != std::end(accepted))
            continue;
        std::string list;
        for (const char *a : accepted)
            list += list.empty() ? a : std::string(", ") + a;
        fatal("unknown environment variable %s (accepted: %s)",
              name.c_str(), list.c_str());
    }
}

void
checkEnvNamesOnce()
{
    static std::once_flag once;
    std::call_once(once, checkEnvNames);
}

} // namespace howsim
