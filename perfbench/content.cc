#include "content.h"

#include <cstring>

#include "common/rng.h"
#include "nn/architecture.h"

namespace perfbench {

namespace {

// 10% of the models change per version, half fully and half in fc3/fc4.
constexpr size_t kFullPerMille = 50;
constexpr size_t kPartialPerMille = 50;

bool IsPartialLayer(const std::string& key) {
  return key.rfind("fc3.", 0) == 0 || key.rfind("fc4.", 0) == 0;
}

void Perturb(mmm::Tensor* tensor, mmm::Rng* rng) {
  for (float& value : tensor->mutable_data()) {
    value += static_cast<float>(rng->NextGaussian(0.0, 0.01));
  }
}

/// Four independent multiply-rotate lanes over 8-byte words, so the digest
/// of a 4 MB set costs well under a millisecond next to its recovery.
class Hasher {
 public:
  void Add(const void* data, size_t bytes) {
    const auto* p = static_cast<const uint8_t*>(data);
    while (bytes >= 32) {
      uint64_t words[4];
      std::memcpy(words, p, 32);
      for (int lane = 0; lane < 4; ++lane) Mix(lane, words[lane]);
      p += 32;
      bytes -= 32;
    }
    while (bytes >= 8) {
      uint64_t word;
      std::memcpy(&word, p, 8);
      Mix(0, word);
      p += 8;
      bytes -= 8;
    }
    if (bytes > 0) {
      uint64_t word = 0;
      std::memcpy(&word, p, bytes);
      Mix(1, word ^ (static_cast<uint64_t>(bytes) << 56));
    }
  }
  void AddU64(uint64_t value) { Mix(2, value); }
  uint64_t Finish() const {
    uint64_t h = count_;
    for (uint64_t lane : lanes_) h = mmm::Rng::Mix64(h ^ lane);
    return h;
  }

 private:
  void Mix(int lane, uint64_t word) {
    uint64_t h = (lanes_[lane] ^ word) * 0x9E3779B97F4A7C15ULL;
    lanes_[lane] = (h << 31) | (h >> 33);
    ++count_;
  }
  uint64_t lanes_[4] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL,
                        0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};
  uint64_t count_ = 0;
};

}  // namespace

VersionGen::VersionGen(uint64_t seed, size_t models)
    : seed_(seed), models_(models) {}

mmm::ModelSet VersionGen::Initial() const {
  return mmm::MakeInitializedSet(mmm::Ffnn48Spec(), models_, seed_)
      .ValueOrDie();
}

mmm::ModelSetUpdateInfo VersionGen::Advance(mmm::ModelSet* set,
                                            uint64_t version) const {
  mmm::Rng rng = mmm::Rng(seed_).Fork("version", version);
  std::vector<size_t> order = rng.Permutation(set->models.size());
  const size_t full = set->models.size() * kFullPerMille / 1000;
  const size_t partial = set->models.size() * kPartialPerMille / 1000;

  mmm::ModelSetUpdateInfo update;
  update.kinds.assign(set->models.size(), mmm::UpdateKind::kNone);
  update.partial_layers = {"fc3", "fc4"};
  for (size_t rank = 0; rank < full + partial; ++rank) {
    const size_t model = order[rank];
    const bool whole = rank < full;
    update.kinds[model] =
        whole ? mmm::UpdateKind::kFull : mmm::UpdateKind::kPartial;
    for (auto& [key, tensor] : set->models[model]) {
      if (whole || IsPartialLayer(key)) Perturb(&tensor, &rng);
    }
  }
  return update;
}

uint64_t ContentDigest(const mmm::ModelSet& set) {
  Hasher hasher;
  hasher.AddU64(set.models.size());
  for (const mmm::StateDict& model : set.models) {
    hasher.AddU64(model.size());
    for (const auto& [key, tensor] : model) {
      hasher.Add(key.data(), key.size());
      for (size_t dim : tensor.shape()) hasher.AddU64(dim);
      hasher.Add(tensor.data().data(), tensor.data().size_bytes());
    }
  }
  return hasher.Finish();
}

uint64_t LogicalBytes(const mmm::ModelSet& set) {
  uint64_t bytes = 0;
  for (const mmm::StateDict& model : set.models) {
    for (const auto& entry : model) bytes += entry.second.data().size_bytes();
  }
  return bytes;
}

}  // namespace perfbench
