#include <memory>
#include <vector>

#include "check/fuzz.hh"
#include "core/prefetcher.hh"
#include "mem/cache_array.hh"
#include "perf.hh"
#include "trace/trace.hh"

namespace psim::perf
{

ReplayTotals::ReplayTotals()
    : observeNs(check::fuzzSchemes().size()),
      observations(check::fuzzSchemes().size()),
      candidates(check::fuzzSchemes().size())
{
}

void
replayStream(const Cell &cell, const std::string &trace_path, Machine &m,
             ReplayTotals &acc, SpanLog &spans, std::size_t root)
{
    const std::size_t replay = spans.open(cell.id, root, "replay");
    const std::vector<TraceRecord> records = TraceReader::readAll(trace_path);
    const MachineConfig &cfg = cell.cfg;
    const BackingStore &store = m.store();
    std::vector<std::uint8_t> block(cfg.blockSize);
    std::vector<Addr> out;

    // Every scheme sees the same stream, so their costs compare
    // directly. The replay has no prefetch fills and no fate feedback:
    // it costs the observation path, with the recorded hit bits.
    const std::vector<PrefetchScheme> &schemes = check::fuzzSchemes();
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        MachineConfig scfg = cfg;
        scfg.prefetch.scheme = schemes[s];
        std::vector<std::unique_ptr<Prefetcher>> pf;
        for (unsigned n = 0; n < cfg.numProcs; ++n)
            pf.push_back(Prefetcher::create(scfg));
        const bool content = pf.front()->wantsBlockContent();

        const std::size_t span = spans.open(cell.id, replay,
                std::string("core.observe.") + toString(schemes[s]));
        double observations = 0;
        double candidates = 0;
        auto observe = [&](Prefetcher &p, const ReadObservation &obs) {
            out.clear();
            p.observeRead(obs, out);
            candidates += static_cast<double>(out.size());
            ++observations;
        };
        const Clock::time_point t0 = Clock::now();
        for (const TraceRecord &rec : records) {
            if (rec.kind != TraceRecord::Kind::Read)
                continue;
            Prefetcher &p = *pf[rec.node];
            ReadObservation obs;
            obs.pc = rec.pc;
            obs.addr = rec.addr;
            obs.hit = rec.hit;
            if (content) {
                // As in the SLC: one backing-store read per observation,
                // a content view on hits, and a synthesized fill
                // observation for each miss.
                store.read(cfg.blockAddr(rec.addr), block.data(),
                           cfg.blockSize);
                if (rec.hit) {
                    obs.content = block.data();
                    obs.contentLen = cfg.blockSize;
                }
                observe(p, obs);
                if (!rec.hit) {
                    ReadObservation fill;
                    fill.pc = rec.pc;
                    fill.addr = rec.addr;
                    fill.fill = true;
                    fill.content = block.data();
                    fill.contentLen = cfg.blockSize;
                    observe(p, fill);
                }
            } else {
                observe(p, obs);
            }
        }
        acc.observeNs[s] += secondsBetween(t0, Clock::now()) * 1e9;
        spans.close(span);
        acc.observations[s] += observations;
        acc.candidates[s] += candidates;
    }

    std::vector<CacheArray> arrays;
    for (unsigned n = 0; n < cfg.numProcs; ++n)
        arrays.emplace_back(cfg.slcSize, cfg.slcAssoc, cfg.blockSize);
    const std::size_t span = spans.open(cell.id, replay, "mem.slc_probe");
    const Clock::time_point t0 = Clock::now();
    for (const TraceRecord &rec : records) {
        CacheArray &a = arrays[rec.node];
        const Addr blk = cfg.blockAddr(rec.addr);
        if (!a.find(blk))
            a.fill(a.findVictim(blk), blk, CohState::Shared, rec.tick);
    }
    acc.probeNs += secondsBetween(t0, Clock::now()) * 1e9;
    spans.close(span);
    acc.probes += static_cast<double>(records.size());
    spans.close(replay);
}

} // namespace psim::perf
