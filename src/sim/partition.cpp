#include "sim/partition.hpp"

#include <stdexcept>

#include "util/hash.hpp"

namespace km {

namespace {
std::vector<std::vector<Vertex>> invert(
    std::size_t k, const std::vector<std::uint32_t>& home) {
  std::vector<std::vector<Vertex>> owned(k);
  for (std::size_t v = 0; v < home.size(); ++v) {
    owned[home[v]].push_back(static_cast<Vertex>(v));
  }
  return owned;
}
}  // namespace

VertexPartition::VertexPartition(std::size_t k,
                                 std::vector<std::uint32_t> home)
    : k_(k),
      home_(std::move(home)),
      owned_(invert(k, home_)),
      rank_(home_.size(), 0) {
  for (const auto& owned : owned_) {
    for (std::size_t i = 0; i < owned.size(); ++i) {
      rank_[owned[i]] = static_cast<std::uint32_t>(i);
    }
  }
}

VertexPartition VertexPartition::random(std::size_t n, std::size_t k,
                                        Rng& rng) {
  if (k == 0) throw std::invalid_argument("VertexPartition: k must be >= 1");
  std::vector<std::uint32_t> home(n);
  for (auto& h : home) h = static_cast<std::uint32_t>(rng.below(k));
  return VertexPartition(k, std::move(home));
}

VertexPartition VertexPartition::by_hash(std::size_t n, std::size_t k,
                                         std::uint64_t seed) {
  if (k == 0) throw std::invalid_argument("VertexPartition: k must be >= 1");
  std::vector<std::uint32_t> home(n);
  for (std::size_t v = 0; v < n; ++v) {
    home[v] = static_cast<std::uint32_t>(hash_vertex(seed, v) % k);
  }
  return VertexPartition(k, std::move(home));
}

VertexPartition VertexPartition::round_robin(std::size_t n, std::size_t k) {
  if (k == 0) throw std::invalid_argument("VertexPartition: k must be >= 1");
  std::vector<std::uint32_t> home(n);
  for (std::size_t v = 0; v < n; ++v) {
    home[v] = static_cast<std::uint32_t>(v % k);
  }
  return VertexPartition(k, std::move(home));
}

VertexPartition VertexPartition::identity(std::size_t n) {
  std::vector<std::uint32_t> home(n);
  for (std::size_t v = 0; v < n; ++v) home[v] = static_cast<std::uint32_t>(v);
  return VertexPartition(n, std::move(home));
}

std::size_t VertexPartition::max_load() const noexcept {
  std::size_t best = 0;
  for (const auto& o : owned_) best = std::max(best, o.size());
  return best;
}

double VertexPartition::imbalance() const noexcept {
  if (n() == 0 || k_ == 0) return 0.0;
  const double expected = static_cast<double>(n()) / static_cast<double>(k_);
  return static_cast<double>(max_load()) / expected;
}

EdgePartition::EdgePartition(std::size_t k, std::vector<std::uint32_t> home)
    : k_(k), home_(std::move(home)) {
  owned_.resize(k_);
  for (std::size_t e = 0; e < home_.size(); ++e) {
    owned_[home_[e]].push_back(static_cast<std::uint32_t>(e));
  }
}

EdgePartition EdgePartition::random(std::size_t m, std::size_t k, Rng& rng) {
  if (k == 0) throw std::invalid_argument("EdgePartition: k must be >= 1");
  std::vector<std::uint32_t> home(m);
  for (auto& h : home) h = static_cast<std::uint32_t>(rng.below(k));
  return EdgePartition(k, std::move(home));
}

EdgePartition EdgePartition::by_hash(std::size_t m, std::size_t k,
                                     std::uint64_t seed) {
  if (k == 0) throw std::invalid_argument("EdgePartition: k must be >= 1");
  std::vector<std::uint32_t> home(m);
  for (std::size_t e = 0; e < m; ++e) {
    home[e] = static_cast<std::uint32_t>(hash_u64(seed ^ hash_u64(e)) % k);
  }
  return EdgePartition(k, std::move(home));
}

std::size_t EdgePartition::max_load() const noexcept {
  std::size_t best = 0;
  for (const auto& o : owned_) best = std::max(best, o.size());
  return best;
}

}  // namespace km
