#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace netgym::flight {

// Episode flight recorder: behind a flag, environments capture step-level
// records (action, reward, and a few named env internals -- buffer level,
// queue delay, server backlog) and the worst-k episodes by mean reward are
// dumped as JSONL for tail debugging. Off by default: when disabled,
// begin_episode returns null and environments pay one pointer check per step.
//
// Determinism contract: the recorder never draws from an netgym::Rng, never
// reorders or skips work, and only *copies* values the env already computed,
// so enabling it cannot change any simulated or trained number at any thread
// count (pinned in parallel_determinism_test). Ranking ties are broken by
// (mean reward, total reward, steps, task) so the retained set itself is
// independent of submission order.

/// Everything captured for one episode. Step-level vectors are truncated at
/// kMaxStepsCaptured (`truncated` set, `steps` still counts every step).
struct EpisodeRecord {
  std::string task;                      ///< "abr" / "cc" / "lb"
  std::vector<std::string> field_names;  ///< env-internal channel names
  std::vector<int> actions;
  std::vector<double> rewards;
  std::vector<std::vector<double>> fields;  ///< one vector per field name
  double total_reward = 0.0;
  double mean_reward = 0.0;
  std::int64_t steps = 0;
  bool truncated = false;
};

inline constexpr std::size_t kMaxStepsCaptured = 4096;

/// Per-episode capture buffer owned by an env between reset() and the done
/// step. Not thread-safe (an env runs an episode on one thread).
class EpisodeCapture {
 public:
  EpisodeCapture(const char* task, std::initializer_list<const char*> fields);

  /// Append one step. `values` must match the field list length.
  void add(int action, double reward, std::initializer_list<double> values);

  /// Finalize totals and hand the record off.
  EpisodeRecord finish();

 private:
  EpisodeRecord rec_;
};

/// Process-wide worst-k sink.
class Recorder {
 public:
  static Recorder& instance();

  /// Start retaining the `worst_k` lowest-mean-reward episodes.
  void enable(int worst_k);
  void disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void submit(EpisodeRecord rec);

  /// Retained episodes, worst (lowest mean reward) first.
  std::vector<EpisodeRecord> worst() const;

  std::uint64_t episodes_seen() const {
    return seen_.load(std::memory_order_relaxed);
  }

  /// One JSON object per line, worst episode first; throws std::runtime_error
  /// naming `path` if the file cannot be written.
  void write_jsonl(const std::string& path) const;

  /// Drop retained episodes and the seen count (keeps enabled state).
  void reset();

 private:
  Recorder() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> seen_{0};
  int worst_k_ = 8;
  mutable std::mutex mu_;
  std::vector<EpisodeRecord> worst_;  ///< sorted, worst first
};

/// Null when the recorder is disabled; envs call this from reset().
std::unique_ptr<EpisodeCapture> begin_episode(
    const char* task, std::initializer_list<const char*> fields);

/// Finish `capture` and submit it; no-op on null. Envs call this on the done
/// step; the pointer is consumed either way.
void submit(std::unique_ptr<EpisodeCapture> capture);

}  // namespace netgym::flight
