#include "net/packet.h"

#include <sstream>

namespace hsr::net {

namespace {
// Thread-local: a flow (or one simulator's set of subflows) runs entirely
// on one thread, so per-thread uniqueness suffices. Sharding parallel
// experiments across a pool therefore neither races here nor lets thread
// interleaving bleed into any analysis output.
thread_local std::uint64_t next_packet_id = 1;
}  // namespace

std::uint64_t allocate_packet_id() { return next_packet_id++; }

void reset_packet_ids() { next_packet_id = 1; }

std::string Packet::describe() const {
  std::ostringstream os;
  os << (kind == PacketKind::kData ? "DATA" : "ACK") << " flow=" << flow;
  if (kind == PacketKind::kData) {
    os << " seq=" << seq;
    if (is_retransmission) os << " retx#" << retx_count;
  } else {
    os << " ack_next=" << ack_next;
  }
  os << " id=" << id;
  return os.str();
}

}  // namespace hsr::net
