/**
 * @file
 * Strict numeric parsing for command-line flag values.
 *
 * The benches originally fed flag values straight into strtoul(),
 * which silently accepts trailing garbage ("--jobs 4x" ran 4
 * jobs), leading whitespace, a *minus sign* (the value wraps to a
 * huge unsigned), and out-of-range values (which wrap through the
 * unsigned cast). These helpers accept exactly the strings that are
 * nonempty runs of decimal digits within range, and fatal() -- naming
 * the flag -- on everything else.
 */

#ifndef PSIM_SIM_PARSE_HH
#define PSIM_SIM_PARSE_HH

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <string>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace psim
{

/**
 * Parse @p v as an unsigned decimal integer in [0, @p max]. Strict:
 * every character must be a decimal digit (no sign, no whitespace, no
 * suffix) and the value must fit. fatal() otherwise, blaming @p what
 * (typically the flag name, e.g. "--jobs").
 */
inline unsigned long long
parseUnsignedStrict(const char *what, const std::string &v,
                    unsigned long long max =
                            std::numeric_limits<unsigned long long>::max())
{
    if (v.empty())
        psim_fatal("%s: empty value (expected an unsigned integer)", what);
    for (char c : v) {
        if (c < '0' || c > '9')
            psim_fatal("%s: '%s' is not an unsigned integer "
                       "(offending character '%c')", what, v.c_str(), c);
    }
    errno = 0;
    char *end = nullptr;
    unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (errno == ERANGE || n > max)
        psim_fatal("%s: %s is out of range (maximum %llu)", what, v.c_str(),
                   max);
    return n;
}

/** parseUnsignedStrict() narrowed to unsigned. */
inline unsigned
parseUnsignedFlag(const char *what, const std::string &v)
{
    return static_cast<unsigned>(parseUnsignedStrict(
            what, v, std::numeric_limits<unsigned>::max()));
}

/** parseUnsignedStrict() for tick counts. */
inline Tick
parseTickFlag(const char *what, const std::string &v)
{
    return static_cast<Tick>(parseUnsignedStrict(
            what, v, std::numeric_limits<Tick>::max()));
}

} // namespace psim

#endif // PSIM_SIM_PARSE_HH
