// Synthetic, seeded model-set content for the benchmark: an initialized
// FFNN-48 set and a chain of versions that each retrain 10% of the models
// (the paper's update rate). No training runs; "retraining" perturbs the
// parameters with seeded noise.
#ifndef PERFBENCH_CONTENT_H_
#define PERFBENCH_CONTENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/model_set.h"

namespace perfbench {

/// Models per set. 200 FFNN-48 models are ~4 MB of parameters.
inline constexpr size_t kModelsPerSet = 200;

/// \brief Deterministic version generator: the same seed gives the same
/// sets, bit for bit.
class VersionGen {
 public:
  explicit VersionGen(uint64_t seed, size_t models = kModelsPerSet);

  /// Version 0: MakeInitializedSet(Ffnn48Spec(), models, seed).
  mmm::ModelSet Initial() const;

  /// Turns version `version - 1` (in `set`) into `version`: 5% of the
  /// models get every layer perturbed, another 5% only fc3/fc4. Returns
  /// the update info for SaveDerived, minus base_set_id.
  mmm::ModelSetUpdateInfo Advance(mmm::ModelSet* set, uint64_t version) const;

 private:
  uint64_t seed_;
  size_t models_;
};

/// 64-bit digest of a set's content: parameter keys, shapes and raw bytes
/// of every model, in order.
uint64_t ContentDigest(const mmm::ModelSet& set);

/// Logical parameter bytes of a set (float count x 4).
uint64_t LogicalBytes(const mmm::ModelSet& set);

}  // namespace perfbench

#endif  // PERFBENCH_CONTENT_H_
