#include "core/rpt.hh"

#include "sim/logging.hh"

namespace psim
{

const char *
toString(RptState s)
{
    switch (s) {
      case RptState::New:
        return "new";
      case RptState::Init:
        return "init";
      case RptState::Steady:
        return "steady";
      case RptState::Transient:
        return "transient";
      case RptState::NoPref:
        return "no-pref";
    }
    return "?";
}

std::size_t
Rpt::indexOf(Pc pc) const
{
    // Synthetic PCs are word-aligned; drop the low bits before indexing,
    // as a hardware RPT would.
    return static_cast<std::size_t>((pc >> 2) & (_table.size() - 1));
}

const RptEntry *
Rpt::lookup(Pc pc) const
{
    const RptEntry &e = _table[indexOf(pc)];
    if (e.valid && e.pc == pc)
        return &e;
    return nullptr;
}

Rpt::Outcome
Rpt::observe(Pc pc, Addr addr, bool allocate_on_miss)
{
    RptEntry &e = _table[indexOf(pc)];
    Outcome out;

    if (!e.valid || e.pc != pc) {
        // RPT miss: allocate only when the reference missed in the SLC.
        if (allocate_on_miss) {
            if (e.valid)
                ++conflicts;
            ++allocations;
            e.valid = true;
            e.pc = pc;
            e.prevAddr = addr;
            e.stride = 0;
            e.state = RptState::New;
        }
        out.state = RptState::New;
        return out;
    }

    out.entryHit = true;
    std::int64_t observed = static_cast<std::int64_t>(addr) -
                            static_cast<std::int64_t>(e.prevAddr);

    if (e.state == RptState::New) {
        // Second appearance of this instruction: calculate the stride,
        // enter init, and begin prefetching (Section 3.2).
        e.stride = observed;
        e.state = RptState::Init;
    } else {
        bool is_correct = (observed == e.stride);
        if (is_correct)
            ++correct;
        else
            ++incorrect;
        switch (e.state) {
          case RptState::Init:
            if (is_correct) {
                e.state = RptState::Steady;
            } else {
                e.state = RptState::Transient;
                e.stride = observed;
            }
            break;
          case RptState::Steady:
            // A single incorrect prediction does not recalculate the
            // stride; it only demotes to init (Section 3.2).
            e.state = is_correct ? RptState::Steady : RptState::Init;
            break;
          case RptState::Transient:
            if (is_correct) {
                e.state = RptState::Steady;
            } else {
                e.state = RptState::NoPref;
                e.stride = observed;
            }
            break;
          case RptState::NoPref:
            if (is_correct) {
                e.state = RptState::Transient;
            } else {
                e.stride = observed;
            }
            break;
          case RptState::New:
            psim_panic("unreachable RPT state");
        }
    }

    e.prevAddr = addr;
    out.state = e.state;
    out.stride = e.stride;
    out.prefetchable =
            e.state != RptState::NoPref && e.state != RptState::New &&
            e.stride != 0;
    return out;
}

} // namespace psim
