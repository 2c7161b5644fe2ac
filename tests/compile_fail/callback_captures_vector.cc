/**
 * @file
 * Must not compile: a std::vector capture is not trivially copyable, so
 * the event pool could not copy the callback as bytes.
 */

#include <vector>

#include "sim/event_queue.hh"

void
scheduleWithVector(psim::EventQueue &eq, std::vector<int> values)
{
    eq.scheduleIn(1, [values] { (void)values.size(); });
}
