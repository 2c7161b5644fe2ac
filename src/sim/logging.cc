#include "sim/logging.hh"

#include <cstdarg>

namespace psim
{

namespace
{

/** Live PanicThrows scopes on this thread. */
thread_local unsigned panicThrowsDepth = 0;

} // namespace

PanicThrows::PanicThrows() { ++panicThrowsDepth; }

PanicThrows::~PanicThrows() { --panicThrowsDepth; }

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<size_t>(n));
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    }
    va_end(ap2);
    return out;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    if (panicThrowsDepth > 0)
        throw Panic(strfmt("%s (%s:%d)", msg.c_str(), file, line));
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace psim
