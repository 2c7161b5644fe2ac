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
 * recurse once to build their configured base; MachineConfig::validate
 * rejects wrapper-as-base combinations that would recurse further
 * (ptron may wrap chase, nothing wraps ptron).
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
        return std::make_unique<DDetPrefetcher>(cfg.blockSize, p.degree,
                p.ddetEntries, p.strideThreshold, cfg.pageSize);
      case PrefetchScheme::Adaptive:
        return std::make_unique<AdaptiveSequentialPrefetcher>(
                cfg.blockSize, p.degree, p.adaptiveMaxDegree,
                p.adaptiveWindow);
      case PrefetchScheme::IDetLookahead:
        return std::make_unique<IDetPrefetcher>(p.rptEntries, p.degree,
                cfg.blockSize, p.lookaheadStrides);
      case PrefetchScheme::MultiStride:
        return std::make_unique<MultiStridePrefetcher>(p.rptEntries,
                p.mstrideWays, p.mstrideConf, p.degree, cfg.blockSize);
      case PrefetchScheme::PtrChase:
        if (p.chaseBase == PrefetchScheme::PtrChase ||
            p.chaseBase == PrefetchScheme::Perceptron)
            psim_fatal("chaseBase must be a non-wrapper scheme");
        return std::make_unique<ChasePrefetcher>(cfg.blockSize,
                p.chaseDepth, p.chaseEntries,
                makeScheme(cfg, p.chaseBase));
      case PrefetchScheme::Perceptron:
        if (p.ptronBase == PrefetchScheme::Perceptron)
            psim_fatal("ptronBase must not itself be the perceptron "
                       "filter");
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
