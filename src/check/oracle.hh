/**
 * @file
 * Sequentially-consistent reference memory model (the differential
 * oracle).
 *
 * The machine records every committed access into an AccessLog (see
 * access_log.hh). The oracle replays that log against its own shadow
 * memory -- an independent, trivially-correct sequential model seeded
 * with the pre-run image -- and cross-checks three things:
 *
 *  1. every load value: a load must return exactly what the shadow
 *     memory holds at its commit point (a mismatch means the machine
 *     delivered stale or corrupt data);
 *  2. the final backing-store image: after replaying all stores the
 *     shadow and the machine's functional memory must be bytewise
 *     identical;
 *  3. the page rule: no issued prefetch may leave the page of the
 *     demand access that triggered it (paper Section 2);
 *
 * plus, when the invariant audit ran, the prefetch fate ledger: every
 * node's issues must equal the sum of its terminal fates.
 *
 * The oracle never looks at the timing model, the coherence protocol,
 * or the prefetchers -- which is exactly what makes its verdicts
 * independent evidence that those components returned the right data.
 */

#ifndef PSIM_CHECK_ORACLE_HH
#define PSIM_CHECK_ORACLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/access_log.hh"
#include "mem/backing_store.hh"

namespace psim::audit
{
struct LedgerSnapshot;
}

namespace psim::check
{

/** One cross-check failure, with enough context to debug it. */
struct Divergence
{
    enum class Kind : std::uint8_t
    {
        LoadValue,  ///< a load returned data the SC model disagrees with
        FinalImage, ///< final memory differs from the replayed image
        PageCross,  ///< an issued prefetch left its trigger's page
        Ledger,     ///< audit fate ledger violates conservation
    };

    Kind kind = Kind::LoadValue;
    std::size_t seq = 0; ///< index into the access log (where applicable)
    Tick tick = 0;
    NodeId node = 0;
    Addr addr = 0;
    unsigned len = 0;
    std::uint8_t expected[8]{};
    std::uint8_t got[8]{};

    /** One-line human-readable description. */
    std::string describe() const;
};

/** Outcome of one oracle check. */
struct OracleReport
{
    /** First divergences found, capped at kMaxReported. */
    std::vector<Divergence> divergences;

    /** Total number found (may exceed divergences.size()). */
    std::uint64_t total = 0;

    std::uint64_t loadsChecked = 0;
    std::uint64_t storesReplayed = 0;
    std::uint64_t prefetchesChecked = 0;

    bool ok() const { return total == 0; }
};

class Oracle
{
  public:
    /** Divergences retained in full detail per report. */
    static constexpr std::size_t kMaxReported = 32;

    explicit Oracle(unsigned page_size = 4096) : _pageSize(page_size) {}

    /**
     * Capture the pre-run memory image (call after workload setup(),
     * before Machine::run()); the shadow replay starts from it.
     */
    void snapshotInitial(const BackingStore &store);

    /**
     * Replay @p log against the shadow memory and cross-check load
     * values, the final image of @p final_store, the prefetch page
     * rule, and (when non-null) the audit fate @p ledger.
     */
    OracleReport check(const AccessLog &log,
                       const BackingStore &final_store,
                       const audit::LedgerSnapshot *ledger) const;

  private:
    unsigned _pageSize;
    /** Pre-run image: (page base, page bytes). */
    std::vector<std::pair<Addr, std::vector<std::uint8_t>>> _initial;
};

} // namespace psim::check

#endif // PSIM_CHECK_ORACLE_HH
