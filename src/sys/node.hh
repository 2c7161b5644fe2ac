/**
 * @file
 * One processing node (paper Figure 1): processor + FLC + FLWB + SLC
 * (+SLWB) + local memory/directory, all attached to a local
 * split-transaction bus with a network interface to the mesh.
 */

#ifndef PSIM_SYS_NODE_HH
#define PSIM_SYS_NODE_HH

#include <memory>

#include "mem/bus.hh"
#include "mem/flc.hh"
#include "mem/mem_ctrl.hh"
#include "mem/slc.hh"
#include "mem/write_buffer.hh"
#include "sys/cpu.hh"

namespace psim
{

class Machine;

class Node
{
  public:
    Node(Machine &m, NodeId id);

    NodeId id() const { return _id; }

    /** Deliver a message that has crossed this node's bus. */
    void deliver(const Message &msg);

    /** Present the FLWB head to the SLC (a FlwbPump fired). */
    void pumpFlwb();

    Cpu &cpu() { return *_cpu; }
    Flc &flc() { return *_flc; }
    Flwb &flwb() { return *_flwb; }
    Slc &slc() { return *_slc; }
    const Slc &slc() const { return *_slc; }
    MemCtrl &mem() { return *_mem; }
    const MemCtrl &mem() const { return *_mem; }
    Bus &bus() { return *_bus; }

  private:
    NodeId _id;
    std::unique_ptr<Flc> _flc;
    std::unique_ptr<Flwb> _flwb;
    std::unique_ptr<Bus> _bus;
    std::unique_ptr<Cpu> _cpu;
    std::unique_ptr<Slc> _slc;
    std::unique_ptr<MemCtrl> _mem;
};

} // namespace psim

#endif // PSIM_SYS_NODE_HH
