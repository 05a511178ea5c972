#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rl/policy.hpp"

namespace serve {

// Versioned policy source for the serving daemon (DESIGN.md S5g). A
// PolicyStore owns an immutable view of "the policy being served" and
// refreshes it from a watched checkpoint directory. The checkpoint writer's
// atomic-rename contract (netgym/checkpoint.hpp) does the heavy lifting: a
// file that exists under a `.ckpt` name is always a complete, CRC-valid
// snapshot or it fails read_file loudly -- so hot-swapping reduces to "poll
// for a newer file, try to load it, keep the old policy on any failure".

/// One fully-loaded, immutable policy. Batching workers keep their own
/// executable rl::MlpPolicy built from `sizes`/`params` (the Mlp's forward
/// scratch is mutable, so sharing one network between shards would race) and
/// rebuild it only when `version` moves.
struct PolicyVersion {
  std::vector<int> sizes;       ///< full MLP topology, obs -> hidden -> acts
  std::vector<double> params;   ///< flat parameter vector for sizes
  std::uint32_t version = 0;    ///< 1-based successful-load counter
  std::string source;           ///< checkpoint path this was loaded from
  std::string task;             ///< "meta/task" if the checkpoint carried it

  int obs_size() const { return sizes.front(); }
  int action_count() const { return sizes.back(); }
  std::vector<int> hidden() const {
    return {sizes.begin() + 1, sizes.end() - 1};
  }

  /// Build a greedy executable policy from this version's parameters.
  std::unique_ptr<rl::MlpPolicy> instantiate() const;
};

/// Serve-checkpoint convention: the policy MLP under "policy/" (the standard
/// nn::Mlp save_state layout: sizes, activation, exact param bit patterns)
/// plus an optional "meta/task" provenance string. `genet train --out` writes
/// this; tests and the load bench write it directly.
void write_policy_checkpoint(const rl::MlpPolicy& policy,
                             const std::string& task, const std::string& path);

/// Read + validate a serve checkpoint. Throws netgym::checkpoint's
/// CheckpointError on file/CRC/format defects and std::invalid_argument on a
/// well-formed snapshot whose policy shape is unusable (bad layer sizes,
/// wrong activation, parameter-count mismatch). `version` is set by the
/// caller (the store's load counter), not stored in the file.
PolicyVersion load_policy_checkpoint(const std::string& path);

class PolicyStore {
 public:
  /// Load `path` as the new current policy; throws on any defect, leaving
  /// the previous policy (if any) serving.
  void load_file(const std::string& path);

  /// Load the latest `.ckpt` in `dir` (lexicographically greatest name, the
  /// convention for versioned names like policy_v0007.ckpt). Throws if the
  /// directory has no checkpoint or the latest one fails to load.
  /// Returns the path loaded.
  std::string load_latest(const std::string& dir);

  /// One watch tick: if `dir` now holds a checkpoint newer than what is
  /// serving (later name, or same file rewritten in place -- mtime/size
  /// moved), try to swap to it. A load failure keeps the old policy and
  /// bumps the serve.swap_failures counter. Returns true when a swap
  /// happened.
  bool poll(const std::string& dir);

  /// The policy being served; null until the first successful load. The
  /// returned snapshot stays valid (and immutable) for as long as the caller
  /// holds it, across any number of later swaps.
  std::shared_ptr<const PolicyVersion> current() const;

 private:
  struct SourceStamp {
    std::string path;
    std::filesystem::file_time_type mtime;
    std::uintmax_t size = 0;
  };

  /// Latest .ckpt path in `dir`, or "" when none. Skips the writer's
  /// in-flight `.tmp` files by construction (suffix match on ".ckpt").
  static std::string latest_checkpoint(const std::string& dir);

  void install(PolicyVersion&& loaded, const std::string& path);

  mutable std::mutex mu_;
  std::shared_ptr<const PolicyVersion> current_;
  SourceStamp stamp_;         ///< file behind current_
  SourceStamp failed_stamp_;  ///< last file that failed to load (retry gate)
  std::uint32_t loads_ = 0;
};

}  // namespace serve
