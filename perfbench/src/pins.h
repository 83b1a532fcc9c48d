// Outputs of the default seed (kDefaultSeed), pinned: a run with that seed
// fails its output check unless it reproduces these digests exactly. A
// change that moves them on purpose says why and updates them here.
#pragma once

#include <string>

namespace perfbench {

inline const char* pinned_digest(const std::string& workload) {
  if (workload == "campaign") {
    return "flows=96 quarantined=0 corpus_bytes=28018018 corpus_crc=dc076f89 "
           "stats_crc=c67a77d4 sim_events=3186920 retransmissions=14731 timeouts=1974 queue_drops=0";
  }
  if (workload == "reanalyze") {
    return "flows=48 transmissions=1528530 "
           "corpus_bytes=13382459 stats_crc=c050596f model_crc=0b090256";
  }
  if (workload == "bottleneck") {
    return "flows=384 archive_bytes=23093644 archive_crc=67ce791c fairness_crc=e5819998 "
           "sim_events=2550904 retransmissions=56127 timeouts=6082 queue_drops=11103";
  }
  return nullptr;
}

}  // namespace perfbench
