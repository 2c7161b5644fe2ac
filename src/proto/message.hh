/**
 * @file
 * Coherence-protocol and synchronization messages.
 *
 * The protocol is a full-map directory write-invalidate protocol in the
 * style of Censier and Feautrier, with invalidation acknowledgements
 * collected at the home node and ownership transfers serialized by
 * blocking the directory entry.
 */

#ifndef PSIM_PROTO_MESSAGE_HH
#define PSIM_PROTO_MESSAGE_HH

#include <cstdint>

#include "sim/types.hh"

namespace psim
{

enum class MsgType : std::uint8_t
{
    // cache -> home
    ReadReq,       ///< demand or prefetch read for a shared copy
    ReadExReq,     ///< read-for-ownership (write miss)
    UpgradeReq,    ///< S -> M upgrade (write hit on shared copy)
    WritebackReq,  ///< eviction of a Modified block (carries data)

    // home -> cache
    DataReply,     ///< shared copy (carries data)
    DataExReply,   ///< exclusive copy (carries data)
    UpgradeAck,    ///< upgrade granted (all invalidations done)
    WritebackAck,  ///< writeback accepted

    // home -> owner / sharers, and their responses back to home
    FetchReq,      ///< downgrade M -> S, send data home
    FetchInvReq,   ///< invalidate M copy, send data home
    InvReq,        ///< invalidate S copy
    FetchReply,    ///< owner's data back to home (carries data)
    InvAck,        ///< sharer invalidated

    // synchronization (uncached, serviced at the home memory)
    LockReq,
    LockGrant,
    LockRel,
    BarrierArrive,
    BarrierGo,
};

const char *toString(MsgType t);

/** True for message types serviced by the home memory/directory. */
constexpr bool
isForMemory(MsgType t)
{
    switch (t) {
      case MsgType::ReadReq:
      case MsgType::ReadExReq:
      case MsgType::UpgradeReq:
      case MsgType::WritebackReq:
      case MsgType::FetchReply:
      case MsgType::InvAck:
      case MsgType::LockReq:
      case MsgType::LockRel:
      case MsgType::BarrierArrive:
        return true;
      default:
        return false;
    }
}

/** True for message types that carry a data block payload. */
constexpr bool
carriesData(MsgType t)
{
    switch (t) {
      case MsgType::WritebackReq:
      case MsgType::DataReply:
      case MsgType::DataExReply:
      case MsgType::FetchReply:
        return true;
      default:
        return false;
    }
}

struct Message
{
    MsgType type = MsgType::ReadReq;
    NodeId src = kNodeNone;       ///< sending node
    NodeId dst = kNodeNone;       ///< destination node
    NodeId requester = kNodeNone; ///< original requester (forwards)
    Addr addr = kAddrInvalid;     ///< block address (or lock address)
    Pc pc = 0;                    ///< load PC (I-detection needs it)
    bool prefetch = false;        ///< ReadReq issued by a prefetcher
    std::uint32_t aux = 0;        ///< barrier participant count etc.
};

} // namespace psim

#endif // PSIM_PROTO_MESSAGE_HH
