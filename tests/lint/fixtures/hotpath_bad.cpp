// lint-fixture: rules=hotpath path=src/sim/hot_fixture.cpp
// Positive fixture: every named allocation construct inside an
// HSR_HOT_PATH region fires; the same constructs on the cold path below
// the region stay quiet.
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

namespace fixture {

struct Ev {
  int id;
};

// HSR_HOT_PATH_BEGIN
inline void dispatch(std::vector<Ev>& pending, Ev ev) {
  Ev* leaked = new Ev{ev.id};                      // expect: hot-alloc
  pending.push_back(ev);                           // expect: hot-alloc
  pending.emplace_back(Ev{ev.id});                 // expect: hot-alloc
  auto boxed = std::make_unique<Ev>(ev);           // expect: hot-alloc
  std::function<void()> thunk;                     // expect: hot-alloc
  std::map<int, Ev> by_id;                         // expect: hot-alloc
  std::unordered_set<int> seen;                    // expect: hot-alloc
  using Chain = std::list<Ev>;                     // expect: hot-alloc
  delete leaked;                                   // expect: hot-alloc
}
// HSR_HOT_PATH_END

inline void cold_setup(std::vector<Ev>& v, Ev ev) {
  v.reserve(64);
  v.push_back(ev);
  auto owned = std::make_unique<Ev>(ev);
  (void)owned;
  std::map<int, Ev> by_id;
  (void)by_id;
}

}  // namespace fixture
