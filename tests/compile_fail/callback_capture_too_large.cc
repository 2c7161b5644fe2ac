/**
 * @file
 * Must not compile: a 128-byte capture does not fit the event queue's
 * inline callback storage, and there is no heap fallback.
 */

#include <array>

#include "sim/event_queue.hh"

void
scheduleWithLargeCapture(psim::EventQueue &eq, std::array<char, 128> bytes)
{
    eq.scheduleIn(1, [bytes] { (void)bytes[0]; });
}
