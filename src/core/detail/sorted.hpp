// Deterministic iteration over unordered associative containers.
//
// The engine delivers messages in ascending-source then send order, so
// any loop that sends (or feeds other observable state) while walking a
// hash table would bake the table's layout into the run's identity.
// km_lint's unordered-iter rule therefore bans range-for over
// std::unordered_* containers across src/ and tools/; these helpers are
// the sanctioned replacement.  Both cost O(size log size) per call —
// fine for the per-phase, per-label maps the kernels keep, which is
// where the rule bites.
//
// Where the keys are dense local ids, a sorted vector or an array
// indexed by the id is cheaper still and deterministic by construction.
// PageRank and the Borůvka driver behind mst/components work that way
// (per-run local indexes built from the graph and the partition), and
// triangles and cliques enumerate on a `Graph` in global ids; none of
// them uses these helpers.  Connectivity is the only user left.
#pragma once

#include <algorithm>
#include <memory>
#include <type_traits>
#include <vector>

namespace km::detail {

/// Keys of an unordered map or set in ascending order.  Copies keys
/// only, never mapped values; pair the result with `.at(key)` when the
/// body needs the mapped value (`continue`/`break` keep working, unlike
/// a visitor).
template <typename Container>
std::vector<typename Container::key_type> sorted_keys(const Container& c) {
  std::vector<typename Container::key_type> keys;
  keys.reserve(c.size());
  for (auto it = c.begin(); it != c.end(); ++it) {
    if constexpr (std::is_same_v<typename Container::key_type,
                                 typename Container::value_type>) {
      keys.push_back(*it);  // set: the element is the key
    } else {
      keys.push_back(it->first);  // map: pair<const Key, T>
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Visits fn(key, mapped) over an unordered map in ascending key order.
/// Sorts pointers to the map's nodes (stable across the visit — hash
/// tables never move nodes), so keys are not copied and no per-key
/// lookup happens; use where the body is a plain statement block with
/// no early exit.
template <typename Map, typename Fn>
void for_sorted(Map& m, Fn&& fn) {
  using Item = decltype(std::addressof(*m.begin()));
  std::vector<Item> items;
  items.reserve(m.size());
  for (auto it = m.begin(); it != m.end(); ++it) {
    items.push_back(std::addressof(*it));
  }
  std::sort(items.begin(), items.end(),
            [](Item a, Item b) { return a->first < b->first; });
  for (const Item item : items) fn(item->first, item->second);
}

}  // namespace km::detail
