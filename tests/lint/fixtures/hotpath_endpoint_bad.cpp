// lint-fixture: rules=hotpath path=src/tcp/endpoint_fixture.cpp
// Endpoint-shaped fixture for the TCP hot regions (sender.cpp /
// receiver.cpp): the flat scoreboard/ring idiom (mark, test, rank, at) is
// allocation-free and stays quiet; the node-based constructs the rewrite
// removed (any std::set/std::map named in the region, their insert/emplace,
// std::function callbacks) fire; the pre-sized diagnostic appends opt out
// with the audited marker.
#include <functional>
#include <map>
#include <set>
#include <vector>

namespace fixture {

struct Board {
  bool mark(unsigned long seq);
  bool test(unsigned long seq) const;
  unsigned long rank_below(unsigned long seq) const;
};

struct Info {
  unsigned retx = 0;
};

struct Ring {
  Info& at(unsigned long seq);
};

// HSR_HOT_PATH_BEGIN
inline void on_ack_flat(Board& sacked, Ring& segments, unsigned long seq,
                        std::vector<double>& cwnd_trace, double cwnd) {
  sacked.mark(seq);                                // flat scoreboard: quiet
  segments.at(seq).retx += sacked.test(seq);       // ring slot: quiet
  (void)sacked.rank_below(seq);                    // rank query: quiet
  cwnd_trace.push_back(cwnd);  // hsr-lint-ok: pre-sized by reserve_for
}

inline void on_ack_nodes(std::set<unsigned long>& sacked,           // expect: hot-alloc
                         std::map<unsigned long, Info>& segments,   // expect: hot-alloc
                         unsigned long seq) {
  sacked.insert(seq);                              // expect: hot-alloc
  segments.emplace(seq, Info{});                   // expect: hot-alloc
  std::function<void(unsigned long)> cb;           // expect: hot-alloc
}
// HSR_HOT_PATH_END

inline void cold_setup(std::set<unsigned long>& s) { s.insert(1); }

}  // namespace fixture
