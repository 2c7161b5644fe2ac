#include "proto/message.hh"

namespace psim
{

const char *
toString(MsgType t)
{
    switch (t) {
      case MsgType::ReadReq:
        return "ReadReq";
      case MsgType::ReadExReq:
        return "ReadExReq";
      case MsgType::UpgradeReq:
        return "UpgradeReq";
      case MsgType::WritebackReq:
        return "WritebackReq";
      case MsgType::DataReply:
        return "DataReply";
      case MsgType::DataExReply:
        return "DataExReply";
      case MsgType::UpgradeAck:
        return "UpgradeAck";
      case MsgType::WritebackAck:
        return "WritebackAck";
      case MsgType::FetchReq:
        return "FetchReq";
      case MsgType::FetchInvReq:
        return "FetchInvReq";
      case MsgType::InvReq:
        return "InvReq";
      case MsgType::FetchReply:
        return "FetchReply";
      case MsgType::InvAck:
        return "InvAck";
      case MsgType::LockReq:
        return "LockReq";
      case MsgType::LockGrant:
        return "LockGrant";
      case MsgType::LockRel:
        return "LockRel";
      case MsgType::BarrierArrive:
        return "BarrierArrive";
      case MsgType::BarrierGo:
        return "BarrierGo";
    }
    return "?";
}

} // namespace psim
