#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace genet {

/// Tiny on-disk cache of trained policy parameters, shared by the benchmark
/// harnesses so that, e.g., the Genet-trained ABR policy used by Fig. 9 is
/// trained once and reused by Figs. 10, 13, 15 and 17. Keys are canonical
/// strings (task + method + seed + budget); values are flat vectors (policy
/// parameters, or a harness's cached curve or scores). The directory
/// defaults to ./genet_models and can be overridden with the GENET_MODEL_DIR
/// environment variable. Training is deterministic from the seed, so a cold
/// cache reproduces identical parameters.
///
/// Each entry is a `<key>.model` checkpoint file (netgym/checkpoint.hpp:
/// atomic rename, CRC, exact double bits) holding one `values` vector, so a
/// cut or corrupt entry throws a CheckpointError naming its path instead of
/// loading. A cache written by a build that stored entries as text fails the
/// same way: delete the cache directory and the entries are retrained.
class ModelZoo {
 public:
  ModelZoo();
  explicit ModelZoo(std::string directory);

  /// Load the cached parameters for `key`, or invoke `train`, cache its
  /// result, and return it.
  std::vector<double> get_or_train(
      const std::string& key,
      const std::function<std::vector<double>()>& train);

  /// One spec-describable traditional-RL training: the cache key plus the
  /// declarative inputs (TaskAdapter::dist_spec(), iterations, seed) that
  /// fully determine the trained parameters.
  struct TrainSpec {
    std::string key;
    std::string adapter_spec;
    int iterations = 0;
    std::uint64_t seed = 1;
  };

  /// Batch form of get_or_train for spec-describable trainings: cached keys
  /// load from disk; the misses train -- through the distributed worker pool
  /// when a train-model hook is installed (genet::set_train_model_hook),
  /// in-process otherwise -- and are cached. Results are in spec order and
  /// identical either way, because workers and the local path share
  /// train_model_for_request.
  std::vector<std::vector<double>> get_or_train_batch(
      const std::vector<TrainSpec>& specs);

  bool contains(const std::string& key) const;
  void put(const std::string& key, const std::vector<double>& params);
  std::vector<double> get(const std::string& key) const;

  const std::string& directory() const { return directory_; }

 private:
  std::string path_for(const std::string& key) const;
  std::string directory_;
};

}  // namespace genet
