#ifndef GSTREAM_QUERY_ROUTE_INDEX_H_
#define GSTREAM_QUERY_ROUTE_INDEX_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "query/edge_pattern.h"

namespace gstream {

/// Endpoint-generalization class of a pattern: which endpoints are literal.
/// Bit 0 = literal source, bit 1 = literal target — so LL = 3, L? = 1,
/// ?L = 2, ?? = 0. The four classes partition every pattern an edge can
/// satisfy (see Generalizations), which is what lets the routing prefilter
/// skip whole probe families per label.
inline uint32_t RouteClassOf(const GenericEdgePattern& p) {
  return (p.src_is_var() ? 0u : 1u) | (p.dst_is_var() ? 0u : 2u);
}

/// O(1) reject filter in front of the routing postings: a label bitset (any
/// registered pattern with that label at all) plus a per-label 4-bit mask of
/// the endpoint-generalization classes present. Most streamed edges whose
/// label no query mentions are rejected by one word test; edges whose label
/// is registered probe only the classes that exist instead of all four
/// generalizations. Entries are refcounted per distinct pattern, so the
/// filter stays exact under query churn.
class RoutePrefilter {
 public:
  void Add(const GenericEdgePattern& p);
  void Remove(const GenericEdgePattern& p);

  /// True when some registered pattern has `u`'s label (conservative: the
  /// pattern's endpoints may still mismatch).
  bool MayMatch(const EdgeUpdate& u) const {
    const size_t word = static_cast<size_t>(u.label) >> 6;
    return word < label_bits_.size() &&
           ((label_bits_[word] >> (u.label & 63u)) & 1u) != 0;
  }

  /// Bit (1 << class) set for every endpoint class with live patterns under
  /// `label`; 0 when the label is unregistered.
  uint8_t ClassMask(LabelId label) const {
    const LabelClasses* c = class_counts_.Find(label);
    if (c == nullptr) return 0;
    uint8_t mask = 0;
    for (uint32_t cls = 0; cls < 4; ++cls)
      if (c->count[cls] > 0) mask = static_cast<uint8_t>(mask | (1u << cls));
    return mask;
  }

  bool Empty() const { return class_counts_.size() == 0; }
  void Compact() { class_counts_.Compact(); }
  size_t MemoryBytes() const;

 private:
  struct LabelClasses {
    std::array<uint32_t, 4> count{};  ///< Live patterns per endpoint class.
  };
  std::vector<uint64_t> label_bits_;
  FlatMap<uint32_t, LabelClasses, VertexIdHash> class_counts_;
};

/// The query routing index (DESIGN.md §12): genericized edge pattern ->
/// posting list of routing targets (signature-group ids for the inverted
/// engines, trie nodes for TRIC), over the SIMD flat-map family, fronted by
/// a RoutePrefilter. Routing an incoming edge is an O(1) label test plus at
/// most one probe per live endpoint class — independent of how many queries
/// are registered; the posting lists hold *shared* targets (groups/nodes),
/// so their lengths track distinct query structure, not tenant count.
template <typename Target>
class RouteIndex {
 public:
  /// Registers target `t` under pattern `p`. A (pattern, target) pair is
  /// registered at shared-structure granularity (group creation, node
  /// creation), so callers never add the same pair twice.
  void Add(const GenericEdgePattern& p, Target t) {
    std::vector<Target>& list = postings_.GetOrCreate(p);
    if (list.empty()) prefilter_.Add(p);
    list.push_back(t);
  }

  /// Unregisters one (pattern, target) pair; erases drained postings (and
  /// their prefilter counts). Returns false when the pair was absent.
  bool Remove(const GenericEdgePattern& p, Target t) {
    std::vector<Target>* list = postings_.Find(p);
    if (list == nullptr) return false;
    auto it = std::find(list->begin(), list->end(), t);
    if (it == list->end()) return false;
    list->erase(it);
    if (list->empty()) {
      postings_.Erase(p);
      prefilter_.Remove(p);
    }
    return true;
  }

  bool MayMatch(const EdgeUpdate& u) const { return prefilter_.MayMatch(u); }

  /// Appends every target whose pattern `u` satisfies, deduplicated, and
  /// returns how many were appended. Probes only the endpoint classes the
  /// prefilter records for `u`'s label.
  size_t Route(const EdgeUpdate& u, std::vector<Target>& out) const {
    if (!prefilter_.MayMatch(u)) return 0;
    const size_t begin = out.size();
    const uint8_t mask = prefilter_.ClassMask(u.label);
    int probes = 0;
    const auto probe = [&](VertexId s, VertexId t) {
      const std::vector<Target>* list =
          postings_.Find(GenericEdgePattern{s, u.label, t});
      if (list == nullptr || list->empty()) return;
      out.insert(out.end(), list->begin(), list->end());
      ++probes;
    };
    if (mask & (1u << 3)) probe(u.src, u.dst);
    if (mask & (1u << 1)) probe(u.src, kNoVertex);
    if (mask & (1u << 2)) probe(kNoVertex, u.dst);
    if (mask & (1u << 0)) probe(kNoVertex, kNoVertex);
    if (probes > 1) {
      // A target registered under several matching patterns (e.g. a group
      // whose signature uses both (a,l,?) and (?,l,b)) must route once.
      std::sort(out.begin() + begin, out.end());
      out.erase(std::unique(out.begin() + begin, out.end()), out.end());
    }
    return out.size() - begin;
  }

  /// The posting list of exactly `p` (no generalization), or null. The
  /// pointer is into flat-map slot storage — invalidated by Add/Remove/
  /// Compact, same contract as the trie's NodesFor.
  const std::vector<Target>* Find(const GenericEdgePattern& p) const {
    return postings_.Find(p);
  }

  size_t NumPatterns() const { return postings_.size(); }
  bool Empty() const { return postings_.size() == 0; }

  /// Releases tombstoned slots after a churn wave (deferred: call once per
  /// query removal, not per Remove).
  void Compact() {
    postings_.Compact();
    prefilter_.Compact();
  }

  size_t MemoryBytes() const {
    size_t bytes = postings_.MemoryBytes() + prefilter_.MemoryBytes();
    postings_.ForEach([&](const GenericEdgePattern&, const std::vector<Target>& l) {
      bytes += l.capacity() * sizeof(Target);
    });
    return bytes;
  }

 private:
  RoutePrefilter prefilter_;
  FlatMap<GenericEdgePattern, std::vector<Target>, GenericEdgePatternHash>
      postings_;
};

}  // namespace gstream

#endif  // GSTREAM_QUERY_ROUTE_INDEX_H_
