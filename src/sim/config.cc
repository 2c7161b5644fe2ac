#include "sim/config.hh"

#include <cstdlib>
#include <cstring>

#include "sim/audit.hh"
#include "sim/logging.hh"

namespace psim
{

namespace
{

/**
 * The one scheme registry: display name (toString / the paper figures)
 * plus every accepted spelling. parseScheme, toString and schemeNames
 * all read this table, so a new scheme added here is parseable,
 * printable and listed in error messages at once.
 */
struct SchemeName
{
    PrefetchScheme scheme;
    const char *display;            ///< toString() / figure label
    const char *aliases[3];         ///< accepted parse spellings
};

constexpr SchemeName kSchemeNames[] = {
    {PrefetchScheme::None, "baseline", {"none", "baseline", nullptr}},
    {PrefetchScheme::Sequential, "seq", {"seq", "sequential", nullptr}},
    {PrefetchScheme::IDet, "i-det", {"idet", "i-det", nullptr}},
    {PrefetchScheme::DDet, "d-det", {"ddet", "d-det", nullptr}},
    {PrefetchScheme::Adaptive, "adaptive",
     {"adaptive", "adaptive-seq", nullptr}},
    {PrefetchScheme::IDetLookahead, "i-det-la",
     {"idet-la", "i-det-la", "lookahead"}},
    {PrefetchScheme::MultiStride, "m-stride",
     {"mstride", "m-stride", "multi-stride"}},
    {PrefetchScheme::PtrChase, "chase",
     {"chase", "ptr-chase", "pointer-chase"}},
    {PrefetchScheme::Perceptron, "ptron", {"ptron", "perceptron", nullptr}},
};

} // namespace

const char *
toString(PrefetchScheme s)
{
    for (const SchemeName &e : kSchemeNames) {
        if (e.scheme == s)
            return e.display;
    }
    return "?";
}

std::string
schemeNames()
{
    std::string out;
    for (const SchemeName &e : kSchemeNames) {
        if (!out.empty())
            out += ", ";
        out += e.aliases[0];
    }
    return out;
}

PrefetchScheme
parseScheme(const std::string &name)
{
    for (const SchemeName &e : kSchemeNames) {
        for (const char *alias : e.aliases) {
            if (alias && name == alias)
                return e.scheme;
        }
    }
    psim_fatal("unknown prefetch scheme '%s' (valid: %s)", name.c_str(),
               schemeNames().c_str());
}

bool
auditDefault()
{
    if (!audit::compiledIn())
        return false;
    static const bool enabled = [] {
        const char *env = std::getenv("PSIM_AUDIT");
        return env != nullptr && std::strcmp(env, "0") != 0;
    }();
    return enabled;
}

void
MachineConfig::validate() const
{
    if (!isPowerOf2(blockSize))
        psim_fatal("block size %u is not a power of two", blockSize);
    if (!isPowerOf2(pageSize) || pageSize < blockSize)
        psim_fatal("bad page size %u", pageSize);
    if (!isPowerOf2(flcSize) || flcSize < blockSize)
        psim_fatal("bad FLC size %u", flcSize);
    if (slcSize != 0 && (!isPowerOf2(slcSize) || slcSize < blockSize))
        psim_fatal("bad SLC size %u", slcSize);
    if (numProcs == 0 || meshCols == 0 || numProcs % meshCols != 0)
        psim_fatal("mesh %u nodes / %u columns does not tile", numProcs,
                   meshCols);
    if (numProcs > 64)
        psim_fatal("%u nodes exceed the directory presence mask's limit "
                   "of 64 nodes", numProcs);
    if (flwbEntries == 0 || slwbEntries == 0)
        psim_fatal("write buffers need at least one entry");
    if (prefetch.degree == 0)
        psim_fatal("degree of prefetching must be >= 1");
    // Lookahead 0 would select IDetPrefetcher's tagged continuation.
    if (prefetch.lookaheadStrides == 0)
        psim_fatal("lookaheadStrides must be >= 1");
    if (!(server.zipfTheta >= 0.0 && server.zipfTheta < 1.0))
        psim_fatal("server.zipfTheta %f is outside [0, 1)",
                   server.zipfTheta);
}

unsigned
squarestMeshCols(unsigned procs)
{
    unsigned d = 1;
    for (unsigned c = 1; c * c <= procs; ++c) {
        if (procs % c == 0)
            d = c; // largest divisor <= sqrt(procs)
    }
    return procs / d;
}

void
applyProcCount(MachineConfig &cfg, unsigned procs)
{
    cfg.numProcs = procs;
    cfg.meshCols = squarestMeshCols(procs);
    unsigned rows = procs / cfg.meshCols;
    // A near-chain mesh (1x7 for a prime count, 2x13 for 26, ...) has
    // pathologically long routes compared to the square-ish meshes the
    // paper studies. Honor the request, but never silently.
    if (procs > 2 && cfg.meshCols >= 4 * rows) {
        psim_warn("--procs %u only tiles as a degenerate %ux%u mesh "
                  "(rows x cols); network distances will not resemble a "
                  "square mesh. Prefer a count with a near-square "
                  "factorization (e.g. %u or %u).",
                  procs, rows, cfg.meshCols, procs - 1, procs + 1);
    }
}

} // namespace psim
