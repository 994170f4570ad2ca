#ifndef GSTREAM_BASELINE_INC_ENGINE_H_
#define GSTREAM_BASELINE_INC_ENGINE_H_

#include <memory>
#include <string>

#include "baseline/inverted_common.h"

namespace gstream {
namespace baseline {

/// INC — the incremental inverted-index baseline (paper §5.2) and its
/// caching extension INC+.
///
/// Same indexes and per-path processing as INV; the difference is the join
/// execution on the paths the update touches: instead of re-materializing
/// them in full, INC seeds those paths with the update tuple alone ("makes
/// use of only the update u_i and thus reduces the number of tuples examined
/// throughout the joining process of the paths") and grows the fragment
/// left/right over the edge views. The *other* covering paths of an affected
/// query still have to be re-materialized INV-style — INC owns no per-path
/// state — which is why the paper measures INC roughly 2x (not 100x) faster
/// than INV, still far behind TRIC's shared trie views.
///
/// INC+ reuses the per-view hash tables through a `JoinCache`.
class IncEngine : public InvertedIndexEngineBase {
 public:
  explicit IncEngine(bool enable_cache) : InvertedIndexEngineBase(enable_cache) {}

  std::string name() const override { return cache_ ? "INC+" : "INC"; }
  UpdateResult ApplyUpdate(const EdgeUpdate& u) override;

 protected:
  /// Window-delta pipeline (single inserts are windows of one): iterates the
  /// window's affected signature groups (DESIGN.md §12) and runs one tagged
  /// seeded evaluation of each group's representative — path deltas batched
  /// over every window update, the other paths re-materialized once instead
  /// of once per update.
  void FinalizeWindow(WindowContext& ctx, UpdateResult* window_results) override;

 private:
  /// One tagged seeded whole-window evaluation of `entry`: batched path
  /// deltas over `seeds`, window-position tag per new assignment. `pass_ran`
  /// is false when no covering path was touched or a view was empty.
  /// Returns false on a budget abort (the caller must end the finalize).
  bool EvaluateWindowSeeded(
      QueryEntry& entry, InvWindowContext& wctx,
      const std::vector<std::pair<uint32_t, const EdgeUpdate*>>& seeds,
      uint32_t probe_weight, bool& pass_ran, std::vector<uint32_t>& tags);
};

}  // namespace baseline
}  // namespace gstream

#endif  // GSTREAM_BASELINE_INC_ENGINE_H_
