// The evaluation runner has two branches: lockstep groups for an
// rl::MlpPolicy and one item at a time (plan, episode, finish) for any other
// policy. Both must produce the same values from the same item streams, and
// the dist workers' entry (genet::gap_values on shipped streams) must agree
// with the in-process evaluation item for item.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "genet/adapter.hpp"
#include "netgym/parallel.hpp"
#include "rl/policy.hpp"
#include "rl/trainer.hpp"
#include "traces/tracesets.hpp"

namespace {

using netgym::Rng;

const std::vector<int> kThreadCounts{1, 4};

/// Restores the global pool to its default size when a test exits.
struct PoolGuard {
  ~PoolGuard() { netgym::set_num_threads(0); }
};

/// An rl::MlpPolicy behind a plain netgym::Policy: the runner's
/// dynamic_cast misses, so evaluations take the per-item branch (in
/// parallel, since it clones).
class WrappedMlp : public netgym::Policy {
 public:
  explicit WrappedMlp(rl::MlpPolicy inner) : inner_(std::move(inner)) {}
  void begin_episode() override { inner_.begin_episode(); }
  int act(const netgym::Observation& obs, Rng& rng) override {
    return inner_.act(obs, rng);
  }
  std::unique_ptr<netgym::Policy> clone() const override {
    return std::make_unique<WrappedMlp>(inner_);
  }

 private:
  rl::MlpPolicy inner_;
};

/// A stochastic (sampling) policy, so every episode draws from its stream.
rl::MlpPolicy make_policy(const genet::TaskAdapter& task,
                          std::uint64_t seed) {
  Rng init(seed);
  return rl::MlpPolicy(task.obs_size(), task.action_count(),
                       rl::TrainerOptions{}.hidden, init);
}

std::uint64_t bits(double value) {
  std::uint64_t out;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

/// `eval(policy)` for the bare MLP and for its wrapper at every thread
/// count, each from a fresh rng seeded `seed`: all values bit-identical.
template <class Eval>
void expect_branches_agree(const genet::TaskAdapter& task, std::uint64_t seed,
                           const Eval& eval) {
  PoolGuard guard;
  rl::MlpPolicy mlp = make_policy(task, 42);
  WrappedMlp wrapped(mlp);
  netgym::set_num_threads(1);
  Rng rng(seed);
  const std::vector<double> expect = eval(mlp, rng);
  const std::uint64_t expect_next = rng.engine()();
  for (int threads : kThreadCounts) {
    netgym::set_num_threads(threads);
    for (netgym::Policy* policy :
         {static_cast<netgym::Policy*>(&mlp),
          static_cast<netgym::Policy*>(&wrapped)}) {
      Rng again(seed);
      const std::vector<double> got = eval(*policy, again);
      const char* branch = policy == &mlp ? "lockstep" : "per-item";
      ASSERT_EQ(got.size(), expect.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(bits(got[i]), bits(expect[i]))
            << branch << ", " << threads << " threads, value " << i;
      }
      EXPECT_EQ(again.engine()(), expect_next)
          << branch << ": caller's rng left in a different state";
    }
  }
}

TEST(EvalRunner, TestOnConfigPerItemMatchesLockstep) {
  const genet::AbrAdapter task(1);
  const netgym::Config config = task.space().midpoint();
  expect_branches_agree(task, 77, [&](netgym::Policy& p, Rng& rng) {
    return std::vector<double>{genet::test_on_config(task, p, config, 8, rng)};
  });
}

TEST(EvalRunner, TestOnDistributionPerItemMatchesLockstep) {
  const genet::LbAdapter task(1);
  const netgym::ConfigDistribution dist(task.space());
  expect_branches_agree(task, 13, [&](netgym::Policy& p, Rng& rng) {
    return std::vector<double>{
        genet::test_on_distribution(task, p, dist, 8, rng)};
  });
}

TEST(EvalRunner, TestPerTracePerItemMatchesLockstep) {
  const genet::AbrAdapter task(3);
  std::vector<netgym::Trace> corpus;
  for (int i = 0; i < 5; ++i) {
    corpus.push_back(traces::make_trace(traces::TraceSet::kNorway, true, i));
  }
  expect_branches_agree(task, 4, [&](netgym::Policy& p, Rng& rng) {
    return genet::test_per_trace(task, p, corpus, rng);
  });
}

TEST(EvalRunner, GapToBaselinePerItemMatchesLockstep) {
  const genet::LbAdapter task(1);
  const netgym::Config config = task.space().midpoint();
  expect_branches_agree(task, 5, [&](netgym::Policy& p, Rng& rng) {
    return std::vector<double>{
        genet::gap_to_baseline(task, p, "llf", config, 8, rng)};
  });
}

TEST(EvalRunner, GapToOptimumPerItemMatchesLockstep) {
  const genet::LbAdapter task(1);
  const netgym::Config config = task.space().midpoint();
  expect_branches_agree(task, 6, [&](netgym::Policy& p, Rng& rng) {
    return std::vector<double>{
        genet::gap_to_optimum(task, p, config, 6, rng)};
  });
}

TEST(EvalRunner, WorkerEntryMatchesInProcessItemForItem) {
  // A dist worker evaluates the item streams one unit carries; any subset
  // of the streams must give exactly the in-process values of those items.
  PoolGuard guard;
  netgym::set_num_threads(4);
  const genet::AbrAdapter task(1);
  const netgym::Config config = task.space().midpoint();
  rl::MlpPolicy policy = make_policy(task, 42);
  for (const std::string kind : {"baseline", "optimum"}) {
    constexpr int kItems = 6;
    Rng rng(21);
    std::vector<Rng> streams;
    for (int i = 0; i < kItems; ++i) streams.push_back(rng.fork());
    const std::vector<Rng> shipped = streams;
    const std::vector<double> all =
        genet::gap_values(task, policy, kind, "bba", config, streams);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(kItems));

    for (std::size_t i : {std::size_t{1}, std::size_t{4}}) {
      std::vector<Rng> one{shipped[i]};
      const std::vector<double> got =
          genet::gap_values(task, policy, kind, "bba", config, one);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(bits(got[0]), bits(all[i])) << kind << " item " << i;
    }
    std::vector<Rng> pair{shipped[2], shipped[5]};
    const std::vector<double> got =
        genet::gap_values(task, policy, kind, "bba", config, pair);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(bits(got[0]), bits(all[2])) << kind;
    EXPECT_EQ(bits(got[1]), bits(all[5])) << kind;

    double total = 0.0;
    for (double v : all) total += v;
    Rng again(21);
    const double mean =
        kind == "baseline"
            ? genet::gap_to_baseline(task, policy, "bba", config, kItems, again)
            : genet::gap_to_optimum(task, policy, config, kItems, again);
    EXPECT_EQ(bits(mean), bits(total / kItems)) << kind;
  }
  std::vector<Rng> none;
  EXPECT_THROW(genet::gap_values(task, policy, "nope", "", config, none),
               std::invalid_argument);
}

TEST(EvalRunner, GapBetweenKeepsItsDrawOrder) {
  // Reference episode first, then the policy's, both on the item's stream.
  // The values were recorded from the earlier one-expression form with
  // sampling (non-greedy) policies, whose episodes draw from that stream,
  // so a swapped order changes them.
  struct Case {
    const char* task;
    std::uint64_t bits;
  };
  PoolGuard guard;
  for (const Case& c : {Case{"lb", 0x3f856c0c03331875ULL},
                        Case{"abr", 0x400f91ee9e65409dULL},
                        Case{"cc", 0xc022fb14346e24b7ULL}}) {
    const auto task = genet::make_adapter(c.task, 1);
    rl::MlpPolicy policy = make_policy(*task, 42);
    rl::MlpPolicy reference = make_policy(*task, 43);
    for (int threads : kThreadCounts) {
      netgym::set_num_threads(threads);
      Rng rng(2024);
      const double gap = genet::gap_between(
          *task, policy, reference, task->space().midpoint(), 6, rng);
      EXPECT_EQ(bits(gap), c.bits) << c.task << ", " << threads << " threads";
    }
  }
}

}  // namespace
