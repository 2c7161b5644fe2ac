#include "sys/node.hh"

#include "sim/logging.hh"
#include "sys/machine.hh"

namespace psim
{

Node::Node(Machine &m, NodeId id) : _id(id)
{
    _flc = std::make_unique<Flc>(m.cfg());
    _flwb = std::make_unique<Flwb>(m.eq(), m.cfg());
    _bus = std::make_unique<Bus>(m.eq(), m.cfg());
    _cpu = std::make_unique<Cpu>(m, id, *_flc, *_flwb);
    _slc = std::make_unique<Slc>(m, id, *_flc, *_cpu);
    _mem = std::make_unique<MemCtrl>(m, id);

    _flwb->setConsumer(
            [this](const FlwbEntry &e) { return _slc->tryAccept(e); });
    _flwb->setSpaceCallback([this] { _cpu->flwbSpace(); });
}

void
Node::deliver(const Message &msg)
{
    if (isForMemory(msg.type)) {
        _mem->receive(msg);
        return;
    }
    switch (msg.type) {
      case MsgType::LockGrant:
        _cpu->lockGranted();
        return;
      case MsgType::BarrierGo:
        _cpu->barrierDone();
        return;
      default:
        _slc->receive(msg);
    }
}

} // namespace psim
