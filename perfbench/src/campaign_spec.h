// The Table-I-mix campaign spec shared by the `campaign` and `reanalyze`
// workloads.
#pragma once

#include <cstdint>

#include "workload/dataset.h"

namespace perfbench {

// A single-threaded DatasetSpec with exactly `flows` planned flows, shaped
// the way tools/corpus_campaign shapes its campaigns (that tool keeps its
// apportionment private): ~1/8 of the flows form the stationary control
// corpus, at least one per provider, and the rest split over the four
// Table I campaigns 52:73:65:65 by largest-remainder apportionment.
//
// Flow i runs for the duration the default seed's plan draws for it, in
// the paper's 180-300 s, whatever `seed` is (configure_flow sets it). A
// seed changes every flow's radio, channel and TCP randomness, but not how
// long it runs, so the total work and the largest flow — which sets the
// peak RSS — do not swing with the seed. For the default seed the corpus
// is byte-identical to `corpus_campaign --flows N --threads 1 --seed 1`.
hsr::workload::DatasetSpec campaign_spec(std::uint64_t flows, std::uint64_t seed);

}  // namespace perfbench
