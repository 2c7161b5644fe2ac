/**
 * @file
 * Runtime invariant-audit layer.
 *
 * The paper's headline metrics (Figure 6) are ratios over prefetch
 * outcomes, so a double-count or leak in the outcome accounting
 * silently distorts every reproduced table. This layer converts such
 * drift into hard failures: a per-node prefetch-lifecycle tracker
 * assigns every issued prefetch exactly one terminal fate and asserts
 * the conservation law
 *
 *     pfIssued == useful-tagged + useful-late + write-hit
 *               + invalidated + replaced + aged-unused
 *               + resident-at-end
 *
 * at Slc::finalizeStats(), independently recomputing each fate counter
 * and cross-checking it against the statistics package. Around the
 * lifecycle tracker sit coherence cross-checks validated on every
 * message receive (MSHR/directory-state agreement, SLWB occupancy
 * bounds, no tagged block without a recorded issue) and machine-level
 * quiesce checks (mesh message conservation, no held locks, no pending
 * barrier episodes).
 *
 * Gating: compile-time via the PSIM_AUDIT CMake option (default ON)
 * and runtime via MachineConfig::audit, which defaults to the
 * PSIM_AUDIT environment variable so CI can audit every bench harness
 * without code changes. OFF does not compile the layer away: audit.cc
 * and every `if (_audit)` hook are still built. It only makes
 * compiledIn() false, so no MachineAudit is ever constructed and each
 * hook is a null-pointer branch that is never taken.
 *
 * On violation the audit dumps the offending block's full event
 * history (issue, fill, merge, hit, invalidation, ... with ticks)
 * before aborting -- the context an ad-hoc psim_assert cannot give.
 */

#ifndef PSIM_SIM_AUDIT_HH
#define PSIM_SIM_AUDIT_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace psim
{

class Machine;
class Slc;
struct Message;

namespace audit
{

/** May this build construct the audit (PSIM_AUDIT=ON)? */
constexpr bool
compiledIn()
{
#ifdef PSIM_AUDIT_DISABLED
    return false;
#else
    return true;
#endif
}

/** The terminal fate of one issued prefetch (exactly one per issue). */
enum class Fate : std::uint8_t
{
    None,          ///< issued, fate not yet reached
    UsefulTagged,  ///< demand read hit the tagged block
    UsefulLate,    ///< demand read merged with the in-flight prefetch
    WriteHit,      ///< a store consumed the prefetched block
    Invalidated,   ///< tagged block lost to an invalidation
    Replaced,      ///< tagged block lost to a replacement
    AgedUnused,    ///< aged out of the feedback ring unreferenced
    ResidentAtEnd, ///< still tagged when the run finished
};
constexpr std::size_t kNumFates = 8;

const char *toString(Fate f);

/** Lifecycle events recorded into a block's history (for dumps). */
enum class Event : std::uint8_t
{
    Issue,
    Fill,
    DemandMerge,
    TaggedReadHit,
    TaggedWriteHit,
    DeferredStoreHit,
    Invalidated,
    Replaced,
    AgedOut,
    EndOfRun,
};

const char *toString(Event e);

/**
 * Per-node prefetch-lifecycle tracker. The Slc reports every issue,
 * every lifecycle event and every terminal fate; the tracker fails
 * hard on a second fate for the same issue, a fate without an issue, a
 * tagged fill without a recorded issue, or an SLWB occupancy
 * violation. finalize() asserts the conservation law and cross-checks
 * every independently-counted fate against the stats package.
 */
class NodeAudit
{
  public:
    explicit NodeAudit(NodeId node) : _node(node) {}

    /** A prefetch for @p blk was issued (SLWB slot taken). */
    void onIssue(Addr blk, Pc pc, Tick now);

    /** Record a history-only lifecycle event for a tracked block. */
    void onEvent(Addr blk, Event e, Tick now);

    /** Assign the terminal fate of @p blk's live issue (exactly once). */
    void onFate(Addr blk, Fate f, Event e, Tick now);

    /** Does @p blk have an issue whose fate is still unassigned? */
    bool hasLiveIssue(Addr blk) const;

    /** A fill is about to set the prefetched tag on @p blk. */
    void checkTaggedFill(Addr blk) const;

    /**
     * SLWB occupancy bounds after an allocation: occupancy never
     * exceeds the capacity, and a prefetch allocation leaves at least
     * one slot free for demand accesses (the reserve rule).
     */
    void checkSlwb(std::size_t occupancy, std::size_t cap,
                   bool for_prefetch, const char *where) const;

    /** Structured failure: dump @p blk's event history, then abort. */
    [[noreturn]] void fail(Addr blk, const std::string &msg) const;

    /** Conservation law + stats cross-check at end of run. */
    void finalize(const Slc &slc);

    std::uint64_t issued() const { return _issued; }

    std::uint64_t
    fateCount(Fate f) const
    {
        return _fates[static_cast<std::size_t>(f)];
    }

  private:
    struct Track
    {
        bool live = false;    ///< issued, no terminal fate yet
        Fate lastFate = Fate::None;
        std::uint32_t issues = 0;
        /** Bounded event history, oldest first. */
        std::deque<std::pair<Tick, Event>> hist;
    };

    void record(Track &t, Event e, Tick now);

    NodeId _node;
    std::uint64_t _issued = 0;
    std::array<std::uint64_t, kNumFates> _fates{};
    std::unordered_map<Addr, Track> _tracks;
};

/**
 * Immutable end-of-run export of the prefetch fate ledger, one entry
 * per node: issues and the count of every terminal fate. The
 * differential oracle (check/oracle.hh) consumes this to re-verify the
 * conservation law independently of the audit's own finalize().
 */
struct LedgerSnapshot
{
    struct Node
    {
        std::uint64_t issued = 0;
        std::array<std::uint64_t, kNumFates> fates{};
    };

    std::vector<Node> nodes;
};

/**
 * Machine-wide audit: owns the per-node trackers and the global
 * checks that span nodes -- mesh message conservation, message-field
 * validation on every delivery, and lock/barrier quiescence.
 */
class MachineAudit
{
  public:
    explicit MachineAudit(unsigned num_procs);

    NodeAudit &node(NodeId n) { return *_nodes.at(n); }

    /** A message entered the mesh (called by Mesh::send). */
    void onMeshInject(NodeId src, NodeId dst, unsigned flits);

    /** A message reached its destination component. */
    void onDeliver(const Message &m);

    /** Record a lock request/grant/release into the bounded ring. */
    void onLockEvent(Addr lock, NodeId node, const char *what);

    /** Structured lock failure: dump the recent lock events. */
    [[noreturn]] void failLock(Addr lock, const std::string &msg);

    /** Global quiesce-time checks (call when the machine finished). */
    void finalize(const Machine &m);

    /** Export every node's issue/fate counters for external checking. */
    LedgerSnapshot exportLedger() const;

    std::uint64_t meshInjected() const { return _meshInjected; }
    std::uint64_t meshDelivered() const { return _meshDelivered; }

  private:
    struct LockEvent
    {
        Addr lock;
        NodeId node;
        const char *what;
    };

    unsigned _numProcs;
    std::uint64_t _meshInjected = 0;
    std::uint64_t _meshDelivered = 0;
    std::deque<LockEvent> _lockEvents; ///< bounded, oldest first
    std::vector<std::unique_ptr<NodeAudit>> _nodes;
};

} // namespace audit
} // namespace psim

#endif // PSIM_SIM_AUDIT_HH
