// Fixture for the unordered-iter rule's member-chain form. Never
// compiled; scanned by tests/test_lint.cpp under a src/core/ logical
// path. The range expression names the container through a member
// chain (`a.b`, `a->b`), which matches on its last identifier.
// Expected: two findings, on the two unannotated member-chain loops.
#include <unordered_map>
#include <vector>

struct EdgeSet {
  std::unordered_map<int, std::vector<int>> adjacency;
  std::vector<int> order;
};

int bad_dot(const EdgeSet& edges) {
  int total = 0;
  for (const auto& [u, ns] : edges.adjacency) {
    total += u + static_cast<int>(ns.size());
  }
  return total;
}

int bad_arrow(const EdgeSet* edges) {
  int total = 0;
  for (const auto& kv : edges -> adjacency) {
    total += kv.first;
  }
  return total;
}

int fine(const EdgeSet& edges) {
  int total = 0;
  for (const int v : edges.order) total += v;  // a vector: ordered
  for (const int v : edges.adjacency.at(0)) total += v;  // a call result
  // km-lint: allow(unordered-iter) -- fixture demonstrating the escape
  for (const auto& kv : edges.adjacency) total += kv.first;
  return total;
}
