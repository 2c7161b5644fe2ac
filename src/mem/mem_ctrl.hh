/**
 * @file
 * Home memory controller: DRAM timing, full-map directory, and the
 * memory-side lock/barrier controllers.
 *
 * The directory implements a Censier/Feautrier-style write-invalidate
 * protocol: a presence bit per node for clean blocks, an owner for
 * dirty blocks, invalidation acknowledgements collected at the home,
 * and ownership transfers serialized by blocking the directory entry
 * (subsequent requests for a busy block queue at the home and are
 * replayed in order).
 */

#ifndef PSIM_MEM_MEM_CTRL_HH
#define PSIM_MEM_MEM_CTRL_HH

#include <cstdint>
#include <vector>

#include "proto/lock_ctrl.hh"
#include "proto/message.hh"
#include "sim/audit.hh"
#include "sim/block_table.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"

namespace psim
{

class Machine;
class EventQueue;

class MemCtrl
{
  public:
    MemCtrl(Machine &m, NodeId id);

    /** A message delivered over the local bus. */
    void receive(const Message &m);

    /** Run the directory operation once the bank access is done. */
    void process(const Message &m);

    /** Replay @p next, the request queued behind a busy entry. */
    void replay(const Message &next);

    /** Directory state of a block (tests / invariant checks). */
    struct DirSnapshot
    {
        enum class St : std::uint8_t { Uncached, Clean, Dirty } st =
                St::Uncached;
        std::uint64_t presence = 0;
        NodeId owner = kNodeNone;
        bool busy = false;
    };

    DirSnapshot snapshot(Addr blk_addr) const;

    /** Is the block currently classified migratory (tests)? */
    bool isMigratory(Addr blk_addr) const;

    LockCtrl &locks() { return _locks; }
    const LockCtrl &locks() const { return _locks; }
    BarrierCtrl &barrier() { return _barrier; }
    const BarrierCtrl &barrier() const { return _barrier; }

    stats::Scalar readReqs;
    stats::Scalar readExReqs;
    stats::Scalar upgradeReqs;
    stats::Scalar convertedUpgrades; ///< upgrades handled as ReadEx
    stats::Scalar fetchesSent;
    stats::Scalar invalidationsSent;
    stats::Scalar writebacksRecv;
    stats::Scalar queuedAtBusyEntry;
    stats::Scalar migratoryDetected;   ///< blocks classified migratory
    stats::Scalar migratoryGrants;     ///< reads served exclusively
    stats::Scalar migratoryDemotions;  ///< read-only handoffs demoted

    /**
     * Hand this controller's statistics (including the memory-side
     * lock and barrier controllers it owns) to @p v.
     */
    void
    visitStats(stats::Visitor &v) const
    {
        v.scalar("readReqs", "read requests", readReqs);
        v.scalar("readExReqs", "read-exclusive requests", readExReqs);
        v.scalar("upgradeReqs", "upgrade requests", upgradeReqs);
        v.scalar("convertedUpgrades", "upgrades serviced as read-exclusive",
                convertedUpgrades);
        v.scalar("fetchesSent", "owner fetches sent", fetchesSent);
        v.scalar("invalidationsSent", "invalidations sent", invalidationsSent);
        v.scalar("writebacksRecv", "writebacks received", writebacksRecv);
        v.scalar("queuedAtBusyEntry",
                "requests queued at busy directory entries",
                queuedAtBusyEntry);
        v.scalar("migratoryDetected", "blocks classified migratory",
                migratoryDetected);
        v.scalar("migratoryGrants", "reads granted exclusive copies",
                migratoryGrants);
        v.scalar("migratoryDemotions", "read-only handoffs demoted",
                migratoryDemotions);
        _locks.visitStats(v);
        _barrier.visitStats(v);
    }

  private:
    /**
     * One block's directory state. Kept small: the directory holds one
     * per block ever referenced at this home. Requests queued while the
     * entry is busy live in the side table _waiting.
     */
    struct DirEntry
    {
        enum class St : std::uint8_t { Uncached, Clean, Dirty };

        std::uint64_t presence = 0; ///< sharer bitmask (Clean)
        NodeId owner = kNodeNone;   ///< owner (Dirty)
        NodeId fetchFrom = kNodeNone; ///< owner a fetch is pending from
        NodeId requester = kNodeNone; ///< of the request being serviced
        NodeId lastWriter = kNodeNone; ///< migratory detection
        /** Invalidation acks still due; at most 63, as the presence
         *  mask is 64 bits wide. */
        std::uint8_t pendingAcks = 0;
        St st = St::Uncached;

        bool busy = false;
        bool replayPending = false; ///< a queued request is being replayed
        /** The request being serviced is granted a shared copy. */
        bool pendingShared = false;
        /** It is an upgrade whose requester keeps its shared copy, so
         *  it completes with UpgradeAck rather than DataExReply. */
        bool pendingUpgrade = false;

        // Migratory-sharing detection (cfg.migratoryOpt).
        bool migratory = false;
        std::uint8_t migEvidence = 0; ///< consecutive writer migrations
        std::uint8_t migWasted = 0;   ///< exclusive grants never written
    };

    /**
     * Audit cross-check: directory-entry state must be internally
     * consistent before every operation on it (Dirty entries have an
     * owner and no presence bits, Clean entries the reverse, busy
     * entries an outstanding fetch or invalidation round).
     */
    void auditCheckEntry(const DirEntry &ent, const Message &m) const;

    void handleCoherent(const Message &m);
    void startOp(DirEntry &ent, const Message &m);
    void startReadEx(DirEntry &ent, const Message &m, bool as_upgrade);

    /** Data arrived home (FetchReply or a racing WritebackReq). */
    void ownerDataArrived(DirEntry &ent, Addr addr, bool owner_kept_copy,
                          bool owner_wrote);

    /** Bookkeeping when a node gains exclusive ownership. */
    void grantedExclusive(DirEntry &ent, NodeId req);

    /** All invalidation acks collected. */
    void acksComplete(DirEntry &ent, Addr addr);

    /** Replay the next queued request, if any. */
    void unblock(DirEntry &ent, Addr addr);

    /** Send @p t to @p dst at once: replies are never delayed. */
    void reply(MsgType t, NodeId dst, Addr addr);

    void sendFetch(MsgType t, NodeId owner, Addr addr, NodeId requester);

    static std::uint64_t bit(NodeId n) { return 1ULL << n; }

    Machine &_m;
    /** The machine's event queue. */
    EventQueue &_eq;
    NodeId _id;
    audit::MachineAudit *_audit = nullptr; ///< null when auditing is off
    Resource _bank;
    LockCtrl _locks;
    BarrierCtrl _barrier;
    /** The directory: entries are created on first reference, never
     *  erased. See BlockTable's reference rule. */
    BlockTable<DirEntry> _dir;
    /** Requests queued at busy entries, in arrival order; a block is
     *  present only while its queue is non-empty. */
    BlockTable<std::vector<Message>> _waiting;
};

} // namespace psim

#endif // PSIM_MEM_MEM_CTRL_HH
