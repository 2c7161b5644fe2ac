#include "core/prefetcher.hh"

#include "core/adaptive.hh"
#include "core/chase.hh"
#include "core/ddet.hh"
#include "core/idet.hh"
#include "core/mstride.hh"
#include "core/ptron.hh"
#include "core/sequential.hh"
#include "sim/logging.hh"

namespace psim
{

namespace
{

/**
 * Build @p scheme under @p cfg. The wrapper schemes (chase, ptron)
 * recurse once to build their base, which PrefetchConfig fixes to a
 * non-wrapper scheme.
 */
std::unique_ptr<Prefetcher>
makeScheme(const MachineConfig &cfg, PrefetchScheme scheme)
{
    const PrefetchConfig &p = cfg.prefetch;
    switch (scheme) {
      case PrefetchScheme::None:
        return std::make_unique<NullPrefetcher>();
      case PrefetchScheme::Sequential:
        return std::make_unique<SequentialPrefetcher>(cfg.blockSize,
                                                      p.degree);
      case PrefetchScheme::IDet:
        return std::make_unique<IDetPrefetcher>(p.rptEntries, p.degree,
                                                cfg.blockSize);
      case PrefetchScheme::DDet:
        return std::make_unique<DDetPrefetcher>(cfg.blockSize, p.degree);
      case PrefetchScheme::Adaptive:
        return std::make_unique<AdaptiveSequentialPrefetcher>(
                cfg.blockSize, p.degree, p.adaptiveMaxDegree,
                p.adaptiveWindow);
      case PrefetchScheme::IDetLookahead:
        return std::make_unique<IDetPrefetcher>(p.rptEntries, p.degree,
                cfg.blockSize, p.lookaheadStrides);
      case PrefetchScheme::MultiStride:
        static_assert(PrefetchConfig::mstrideWays <=
                      MultiStrideTable::kMaxWays);
        return std::make_unique<MultiStridePrefetcher>(p.rptEntries,
                p.mstrideWays, p.mstrideConf, p.degree, cfg.blockSize);
      case PrefetchScheme::PtrChase:
        return std::make_unique<ChasePrefetcher>(cfg.blockSize,
                p.chaseDepth, p.chaseEntries,
                makeScheme(cfg, p.chaseBase));
      case PrefetchScheme::Perceptron:
        return std::make_unique<PerceptronFilter>(cfg.blockSize,
                p.ptronTheta, makeScheme(cfg, p.ptronBase));
    }
    psim_panic("unknown prefetch scheme");
}

} // namespace

std::unique_ptr<Prefetcher>
Prefetcher::create(const MachineConfig &cfg)
{
    return makeScheme(cfg, cfg.prefetch.scheme);
}

} // namespace psim
