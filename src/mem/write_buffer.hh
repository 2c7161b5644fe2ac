/**
 * @file
 * First-level write buffer (FLWB).
 *
 * Buffers write, synchronization and read-miss requests issued by the
 * FLC in FIFO order (paper Section 2) and drains them to the SLC. The
 * consumer (the SLC) may refuse an entry when it is out of pending-
 * request (SLWB) entries; the buffer then retries, preserving order.
 */

#ifndef PSIM_MEM_WRITE_BUFFER_HH
#define PSIM_MEM_WRITE_BUFFER_HH

#include <cstdint>
#include <deque>

#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace psim
{

struct FlwbEntry
{
    enum class Kind : std::uint8_t
    {
        Write,
        ReadMiss,
        Lock,
        Unlock,
        BarrierArrive,
    };

    Kind kind = Kind::Write;
    Addr addr = 0;
    Pc pc = 0;
    std::uint32_t aux = 0; ///< barrier participant count
};

class Flwb
{
  public:
    /** The buffer of node @p node; it schedules its FlwbPump events. */
    Flwb(EventQueue &eq, const MachineConfig &cfg, NodeId node)
        : _eq(eq), _cfg(cfg), _node(node)
    {
    }

    bool full() const { return _q.size() >= _cfg.flwbEntries; }
    bool empty() const { return _q.empty(); }
    std::size_t size() const { return _q.size(); }

    /** Enqueue an entry. @pre !full() */
    void
    push(const FlwbEntry &e)
    {
        psim_assert(!full(), "FLWB overflow");
        _q.push_back(e);
        ++pushes;
        occupancy.sample(static_cast<double>(_q.size()));
        if (!_pumping)
            schedulePump(_cfg.flwbLat);
    }

    /**
     * Present the head entry to the SLC (a FlwbPump fired).
     * @param try_consume returns false if the SLC cannot accept the
     *        entry yet; the buffer then retries
     * @param on_space runs whenever an entry drains (a stalled
     *        processor can retry its enqueue)
     */
    template <typename Consume, typename OnSpace>
    void
    pump(Consume &&try_consume, OnSpace &&on_space)
    {
        _pumping = false;
        if (_q.empty())
            return;
        if (try_consume(_q.front())) {
            _q.pop_front();
            on_space();
            if (!_q.empty())
                schedulePump(_cfg.flwbLat);
        } else {
            ++retries;
            schedulePump(_cfg.busCycle);
        }
    }

    stats::Scalar pushes;
    stats::Scalar retries;
    stats::Average occupancy;

    /** Hand this buffer's statistics to @p v. */
    void
    visitStats(stats::Visitor &v) const
    {
        v.scalar("pushes", "entries enqueued", pushes);
        v.scalar("retries", "head retries (SLC refused)", retries);
        v.average("occupancy", "entries after each push", occupancy);
    }

  private:
    void
    schedulePump(Tick delay)
    {
        _pumping = true;
        _eq.schedule(_eq.now() + delay, EventKind::FlwbPump, _node);
    }

    EventQueue &_eq;
    const MachineConfig &_cfg;
    NodeId _node;
    std::deque<FlwbEntry> _q;
    bool _pumping = false;
};

} // namespace psim

#endif // PSIM_MEM_WRITE_BUFFER_HH
