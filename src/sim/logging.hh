/**
 * @file
 * Error and status reporting helpers.
 *
 * Follows the gem5 convention: panic() flags an internal simulator bug
 * and aborts; fatal() flags a user/configuration error and exits
 * cleanly; warn()/inform() report status without stopping.
 */

#ifndef HOWSIM_SIM_LOGGING_HH
#define HOWSIM_SIM_LOGGING_HH

#include <string>

namespace howsim
{

/** Printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal simulator bug and abort. Call when something
 * happens that should never happen regardless of user input.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user/configuration error and exit(1). Call
 * when the simulation cannot continue due to the user's input.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious condition the simulation can survive. */
void warn(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report normal operating status. */
void inform(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Verbosity of the non-fatal channels. Quiet drops warn() and
 * inform(); Warn drops only inform(); Info (the default) prints
 * both. panic()/fatal() always print.
 */
enum class LogLevel
{
    Quiet,
    Warn,
    Info,
};

/**
 * The active level: the HOWSIM_LOG_LEVEL environment variable
 * (quiet|warn|info) unless overridden via setLogLevel()/setQuiet().
 */
LogLevel logLevel();

/**
 * Re-parse HOWSIM_LOG_LEVEL; fatal()s on an unrecognized value.
 * logLevel() caches this at first use — the direct entry point
 * exists so validation is testable after the cache is warm.
 */
LogLevel logLevelFromEnv();

/** Override the log level (wins over HOWSIM_LOG_LEVEL). */
void setLogLevel(LogLevel level);

/** Legacy switch: quiet maps to LogLevel::Quiet, else Info. */
void setQuiet(bool quiet);

/**
 * Check every HOWSIM_* environment variable against the names howsim
 * reads; fatal()s naming the first unknown one and the accepted set,
 * so a typo or a retired knob cannot silently run the defaults.
 */
void checkEnvNames();

/**
 * checkEnvNames() once per process; the Simulator constructor calls
 * it, so the check runs before the first simulation does.
 */
void checkEnvNamesOnce();

} // namespace howsim

#endif // HOWSIM_SIM_LOGGING_HH
