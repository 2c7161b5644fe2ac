/**
 * @file
 * Error and status reporting, in the spirit of gem5's base/logging.hh.
 *
 * panic()  -- an internal invariant was violated (simulator bug); aborts.
 * fatal()  -- the user asked for something impossible (bad config); exits.
 * warn()   -- something looks dubious but simulation continues.
 */

#ifndef PSIM_SIM_LOGGING_HH
#define PSIM_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace psim
{

/** Printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);

} // namespace psim

#define psim_panic(...) \
    ::psim::panicImpl(__FILE__, __LINE__, ::psim::strfmt(__VA_ARGS__))

#define psim_fatal(...) \
    ::psim::fatalImpl(__FILE__, __LINE__, ::psim::strfmt(__VA_ARGS__))

#define psim_warn(...) ::psim::warnImpl(::psim::strfmt(__VA_ARGS__))

/** panic() unless the invariant holds. */
#define psim_assert(cond, ...)                                               \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::psim::panicImpl(__FILE__, __LINE__,                            \
                    std::string("assertion failed: " #cond " ") +            \
                    ::psim::strfmt("" __VA_ARGS__));                         \
        }                                                                    \
    } while (0)

#endif // PSIM_SIM_LOGGING_HH
