#include "campaign_spec.h"

#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

namespace {

hsr::workload::DatasetSpec table1_mix(std::uint64_t flows, std::uint64_t seed) {
  hsr::workload::DatasetSpec spec = hsr::workload::DatasetSpec::paper_table1(1.0);
  constexpr unsigned kProviders = 3;

  std::uint64_t stationary_pp = flows / (8 * kProviders);
  if (stationary_pp == 0) stationary_pp = 1;
  if (flows <= kProviders + spec.campaigns.size()) stationary_pp = 1;
  const std::uint64_t remaining = flows > stationary_pp * kProviders
                                      ? flows - stationary_pp * kProviders
                                      : spec.campaigns.size();

  const std::uint64_t weights[] = {52, 73, 65, 65};
  const std::uint64_t weight_sum = 255;
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < spec.campaigns.size(); ++i) {
    std::uint64_t share = remaining * weights[i] / weight_sum;
    if (share == 0) share = 1;
    spec.campaigns[i].flows = static_cast<unsigned>(share);
    assigned += share;
  }
  auto& top = spec.campaigns[1];
  if (assigned < remaining) {
    top.flows += static_cast<unsigned>(remaining - assigned);
  } else if (assigned > remaining && top.flows > assigned - remaining) {
    top.flows -= static_cast<unsigned>(assigned - remaining);
  }
  spec.stationary_flows_per_provider = static_cast<unsigned>(stationary_pp);
  spec.seed = seed;
  spec.threads = 1;
  return spec;
}

}  // namespace

hsr::workload::DatasetSpec campaign_spec(std::uint64_t flows, std::uint64_t seed) {
  hsr::workload::DatasetSpec spec = table1_mix(flows, seed);
  const hsr::workload::DatasetPlan plan(table1_mix(flows, kDefaultSeed));
  std::vector<hsr::util::Duration> durations;
  for (std::uint64_t i = 0; i < plan.flow_count(); ++i) {
    durations.push_back(plan.task(i).duration);
  }
  spec.configure_flow = [durations = std::move(durations)](
                            std::uint64_t i, hsr::workload::FlowRunConfig& cfg) {
    cfg.duration = durations[i];
  };
  return spec;
}

}  // namespace perfbench
