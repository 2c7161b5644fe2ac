#include "sys/node.hh"

#include "sim/logging.hh"
#include "sys/machine.hh"

namespace psim
{

Node::Node(Machine &m, NodeId id)
    : _id(id),
      _flc(m.cfg()),
      _flwb(m.eq(), m.cfg(), id),
      _bus(m.cfg()),
      _cpu(m, id, _flc, _flwb),
      _slc(m, id, _flc, _cpu),
      _mem(m, id)
{
}

void
Node::pumpFlwb()
{
    _flwb.pump([this](const FlwbEntry &e) { return _slc.tryAccept(e); },
            [this] { _cpu.flwbSpace(); });
}

void
Node::deliver(const Message &msg)
{
    if (isForMemory(msg.type)) {
        _mem.receive(msg);
        return;
    }
    switch (msg.type) {
      case MsgType::LockGrant:
        _cpu.lockGranted();
        return;
      case MsgType::BarrierGo:
        _cpu.barrierDone();
        return;
      default:
        _slc.receive(msg);
    }
}

} // namespace psim
