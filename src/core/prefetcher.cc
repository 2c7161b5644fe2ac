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

std::unique_ptr<Prefetcher>
Prefetcher::create(const MachineConfig &cfg)
{
    const PrefetchConfig &p = cfg.prefetch;
    auto sequential = [&] {
        return std::make_unique<SequentialPrefetcher>(cfg.blockSize,
                                                      p.degree);
    };
    switch (p.scheme) {
      case PrefetchScheme::None:
        return std::make_unique<NullPrefetcher>();
      case PrefetchScheme::Sequential:
        return sequential();
      case PrefetchScheme::IDet:
        return std::make_unique<IDetPrefetcher>(p.degree, cfg.blockSize);
      case PrefetchScheme::DDet:
        return std::make_unique<DDetPrefetcher>(cfg.blockSize, p.degree);
      case PrefetchScheme::Adaptive:
        return std::make_unique<AdaptiveSequentialPrefetcher>(
                cfg.blockSize, p.degree);
      case PrefetchScheme::IDetLookahead:
        return std::make_unique<IDetPrefetcher>(p.degree, cfg.blockSize,
                                                p.lookaheadStrides);
      case PrefetchScheme::MultiStride:
        return std::make_unique<MultiStridePrefetcher>(p.degree,
                                                       cfg.blockSize);
      case PrefetchScheme::PtrChase:
        // Content-directed candidates augment, not replace, a
        // streaming scheme: sequential runs underneath.
        return std::make_unique<ChasePrefetcher>(cfg.blockSize,
                                                 sequential());
      case PrefetchScheme::Perceptron:
        return std::make_unique<PerceptronFilter>(cfg.blockSize,
                                                  sequential());
    }
    psim_panic("unknown prefetch scheme");
}

} // namespace psim
