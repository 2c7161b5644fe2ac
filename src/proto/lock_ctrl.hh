/**
 * @file
 * Queue-based lock and barrier controllers at the home memory
 * (paper Section 4: "a queue-based lock mechanism at memory similar to
 * the one implemented in DASH, with a single lock variable per memory
 * block").
 *
 * Lock requests queue at the lock's home node; a release hands the lock
 * to the next queued requester without any spinning traffic. The
 * barrier is a memory-side counter that releases every participant when
 * the last one arrives (see DESIGN.md for why this substitution is
 * sound: the paper's statistics cover only the parallel sections, and
 * barrier mechanics are common to all compared schemes).
 */

#ifndef PSIM_PROTO_LOCK_CTRL_HH
#define PSIM_PROTO_LOCK_CTRL_HH

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace psim
{

class LockCtrl
{
  public:
    /** Callback that sends a LockGrant to @p dst for lock @p addr. */
    using GrantFn = std::function<void(NodeId dst, Addr addr)>;

    explicit LockCtrl(GrantFn grant) : _grant(std::move(grant)) {}

    /** A LockReq arrived from @p src. */
    void
    request(NodeId src, Addr addr)
    {
        ++requests;
        LockState &l = _locks[addr];
        if (!l.held) {
            l.held = true;
            l.holder = src;
            _grant(src, addr);
        } else {
            l.waiters.push_back(src);
            if (l.waiters.size() > maxQueue.value())
                maxQueue = l.waiters.size();
        }
    }

    /** A LockRel arrived from the holder. */
    void
    release(NodeId src, Addr addr)
    {
        auto it = _locks.find(addr);
        if (it == _locks.end() || !it->second.held) {
            psim_panic("release of free lock %llx",
                    (unsigned long long)addr);
        }
        LockState &l = it->second;
        if (l.holder != src) {
            psim_panic("node %u releasing lock held by %u", src,
                    l.holder);
        }
        if (l.waiters.empty()) {
            l.held = false;
            l.holder = kNodeNone;
        } else {
            l.holder = l.waiters.front();
            l.waiters.pop_front();
            _grant(l.holder, addr);
        }
    }

    bool
    isHeld(Addr addr) const
    {
        auto it = _locks.find(addr);
        return it != _locks.end() && it->second.held;
    }

    /** Locks currently held (audit quiescence check). */
    std::size_t
    heldLocks() const
    {
        std::size_t n = 0;
        for (const auto &[addr, l] : _locks)
            n += l.held ? 1 : 0;
        return n;
    }

    /** Requesters queued behind held locks (audit quiescence check). */
    std::size_t
    queuedWaiters() const
    {
        std::size_t n = 0;
        for (const auto &[addr, l] : _locks)
            n += l.waiters.size();
        return n;
    }

    stats::Scalar requests;
    stats::Scalar maxQueue;

    /** Hand this controller's statistics to @p v. */
    void
    visitStats(stats::Visitor &v) const
    {
        v.scalar("lockRequests", "lock requests received", requests);
        v.scalar("lockMaxQueue", "deepest lock waiter queue observed",
                maxQueue);
    }

  private:
    struct LockState
    {
        bool held = false;
        NodeId holder = kNodeNone;
        std::deque<NodeId> waiters;
    };

    GrantFn _grant;
    std::unordered_map<Addr, LockState> _locks;
};

class BarrierCtrl
{
  public:
    /** Callback that sends a BarrierGo to @p dst for barrier @p addr. */
    using ReleaseFn = std::function<void(NodeId dst, Addr addr)>;

    explicit BarrierCtrl(ReleaseFn release) : _release(std::move(release))
    {
    }

    /**
     * A BarrierArrive from @p src; @p expected participants in total.
     * When the last one arrives, everyone is released.
     */
    void
    arrive(NodeId src, Addr addr, unsigned expected)
    {
        psim_assert(expected > 0, "barrier with no participants");
        Episode &ep = _episodes[addr];
        ep.arrived.push_back(src);
        if (ep.arrived.size() == expected) {
            ++episodes;
            for (NodeId n : ep.arrived)
                _release(n, addr);
            _episodes.erase(addr);
        } else {
            psim_assert(ep.arrived.size() < expected,
                    "barrier %llx oversubscribed",
                    (unsigned long long)addr);
        }
    }

    /** Barrier episodes still waiting for arrivals (audit check). */
    std::size_t pendingEpisodes() const { return _episodes.size(); }

    stats::Scalar episodes;

    /** Hand this controller's statistics to @p v. */
    void
    visitStats(stats::Visitor &v) const
    {
        v.scalar("barrierEpisodes", "barrier episodes completed", episodes);
    }

  private:
    struct Episode
    {
        std::vector<NodeId> arrived;
    };

    ReleaseFn _release;
    std::unordered_map<Addr, Episode> _episodes;
};

} // namespace psim

#endif // PSIM_PROTO_LOCK_CTRL_HH
