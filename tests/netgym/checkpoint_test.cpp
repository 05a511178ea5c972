// Contract tests of the durable-state layer (DESIGN.md S5d): the typed
// Snapshot store, the exact-bit double encoding, the versioned CRC file
// format with its atomic-rename crash safety, and the Serializable
// round-trip of every stateful component. Corrupted, truncated, and
// mismatched snapshots must be rejected with a CheckpointError *before* any
// component state is mutated.

#include "netgym/checkpoint.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bo/gp.hpp"
#include "bo/search.hpp"
#include "genet/adapter.hpp"
#include "genet/robustify.hpp"
#include "netgym/config.hpp"
#include "netgym/rng.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "rl/rollout.hpp"
#include "rl/trainer.hpp"

namespace {

namespace ckpt = netgym::checkpoint;
using ckpt::CheckpointError;
using ckpt::Snapshot;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  out << contents;
}

/// Bit-exact double comparison (EXPECT_EQ fails for NaN, conflates +-0).
void expect_same_bits(double got, double want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want));
}

// ---------------------------------------------------------------- Snapshot

TEST(Snapshot, RoundTripsEveryEntryType) {
  Snapshot snap;
  snap.put_i64("a/i", -42);
  snap.put_u64("a/u", 18446744073709551615ull);
  snap.put_double("a/d", 3.141592653589793);
  snap.put_string("a/s", "hello world");
  snap.put_string("a/s2", std::string("line1\nline2\x01\xff", 13));
  snap.put_doubles("a/dv", {1.0, -2.5, 0.0});
  snap.put_i64s("a/iv", {-1, 0, 7});

  const Snapshot back = Snapshot::decode(snap.encode());
  EXPECT_EQ(back.get_i64("a/i"), -42);
  EXPECT_EQ(back.get_u64("a/u"), 18446744073709551615ull);
  expect_same_bits(back.get_double("a/d"), 3.141592653589793);
  EXPECT_EQ(back.get_string("a/s2"), std::string("line1\nline2\x01\xff", 13));
  EXPECT_EQ(back.get_doubles("a/dv"), (std::vector<double>{1.0, -2.5, 0.0}));
  EXPECT_EQ(back.get_i64s("a/iv"), (std::vector<std::int64_t>{-1, 0, 7}));
  EXPECT_EQ(back.size(), snap.size());
}

TEST(Snapshot, PreservesSpecialDoubleBitPatterns) {
  const double nan_payload =
      std::bit_cast<double>(std::uint64_t{0x7ff80000deadbeefull});
  const std::vector<double> specials{
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      nan_payload,
  };
  Snapshot snap;
  snap.put_doubles("specials", specials);
  snap.put_double("nan", nan_payload);
  const Snapshot back = Snapshot::decode(snap.encode());
  const std::vector<double>& got = back.get_doubles("specials");
  ASSERT_EQ(got.size(), specials.size());
  for (std::size_t i = 0; i < specials.size(); ++i) {
    expect_same_bits(got[i], specials[i]);
  }
  expect_same_bits(back.get_double("nan"), nan_payload);
}

TEST(Snapshot, EncodingIsDeterministicAndSorted) {
  Snapshot a;
  a.put_i64("z", 1);
  a.put_i64("a", 2);
  a.put_i64("m", 3);
  Snapshot b;
  b.put_i64("m", 3);
  b.put_i64("z", 1);
  b.put_i64("a", 2);
  EXPECT_EQ(a.encode(), b.encode());  // insertion order never matters
  EXPECT_EQ(a.keys(), (std::vector<std::string>{"a", "m", "z"}));
}

TEST(Snapshot, GettersThrowOnMissingKeyAndWrongType) {
  Snapshot snap;
  snap.put_i64("i", 1);
  EXPECT_THROW(snap.get_i64("absent"), CheckpointError);
  EXPECT_THROW(snap.get_double("i"), CheckpointError);
  EXPECT_THROW(snap.get_string("i"), CheckpointError);
  EXPECT_THROW(snap.get_doubles("i"), CheckpointError);
  EXPECT_FALSE(snap.has("absent"));
  EXPECT_TRUE(snap.has("i"));
}

TEST(Snapshot, RejectsKeysWithWhitespaceOrControlBytes) {
  Snapshot snap;
  EXPECT_THROW(snap.put_i64("", 1), std::invalid_argument);
  EXPECT_THROW(snap.put_i64("a b", 1), std::invalid_argument);
  EXPECT_THROW(snap.put_i64("a\tb", 1), std::invalid_argument);
  EXPECT_THROW(snap.put_i64("a\nb", 1), std::invalid_argument);
  EXPECT_THROW(snap.put_i64(std::string("a\x01") + "b", 1),
               std::invalid_argument);
}

TEST(Snapshot, DecodeRejectsMalformedPayloads) {
  EXPECT_THROW(Snapshot::decode("k i 1"), CheckpointError);  // no newline
  EXPECT_THROW(Snapshot::decode("\n"), CheckpointError);     // blank line
  EXPECT_THROW(Snapshot::decode("k i 1\nk i 2\n"), CheckpointError);  // dup
  EXPECT_THROW(Snapshot::decode("k x 1\n"), CheckpointError);  // bad type
  EXPECT_THROW(Snapshot::decode("k i one\n"), CheckpointError);
  EXPECT_THROW(Snapshot::decode("k u -1\n"), CheckpointError);
  EXPECT_THROW(Snapshot::decode("k d 123\n"), CheckpointError);  // short hex
  EXPECT_THROW(Snapshot::decode("k d 400921fb54442d1g\n"), CheckpointError);
  EXPECT_THROW(Snapshot::decode("k dv 2 0000000000000000\n"),
               CheckpointError);  // count mismatch
  EXPECT_THROW(Snapshot::decode("k iv 1 1 2\n"), CheckpointError);
  EXPECT_THROW(Snapshot::decode("k s 3 61\n"), CheckpointError);  // short str
  // Lengths whose double wraps to the hex digit count: no 2^63-byte reserve.
  EXPECT_THROW(Snapshot::decode("k s 9223372036854775808\n"),
               CheckpointError);
  EXPECT_THROW(Snapshot::decode("k s 9223372036854775809 61\n"),
               CheckpointError);
  EXPECT_THROW(Snapshot::decode("k\n"), CheckpointError);
}

// ------------------------------------------------------------- file format

TEST(CheckpointFile, Crc32MatchesTheZlibCheckValue) {
  // The canonical CRC-32 test vector; Python's zlib.crc32 agrees, which is
  // what scripts/check_checkpoint.py relies on.
  EXPECT_EQ(ckpt::crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(ckpt::crc32(""), 0x00000000u);
}

TEST(CheckpointFile, WriteReadRoundTripsAndCleansUpTempFile) {
  const std::string path = temp_path("roundtrip.ckpt");
  Snapshot snap;
  snap.put_doubles("w", {1.5, -0.0, 2.25});
  snap.put_string("name", "trial");
  ckpt::write_file(snap, path);

  EXPECT_FALSE(std::ifstream(path + ".tmp").good());  // temp renamed away
  const std::string contents = slurp(path);
  EXPECT_EQ(contents.rfind("genet-checkpoint 1\n", 0), 0u) << contents;

  const Snapshot back = ckpt::read_file(path);
  EXPECT_EQ(back.get_doubles("w"), snap.get_doubles("w"));
  EXPECT_EQ(back.get_string("name"), "trial");
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsMissingCorruptedTruncatedAndWrongVersionFiles) {
  const std::string path = temp_path("defects.ckpt");
  Snapshot snap;
  snap.put_doubles("params", {1.0, 2.0, 3.0});
  ckpt::write_file(snap, path);
  const std::string good = slurp(path);

  EXPECT_THROW(ckpt::read_file(temp_path("no_such.ckpt")), CheckpointError);

  // Flip one payload byte: CRC must catch it.
  std::string corrupted = good;
  corrupted[corrupted.size() - 2] ^= 0x20;
  spit(path, corrupted);
  EXPECT_THROW(ckpt::read_file(path), CheckpointError);

  // Truncate mid-payload: length check must catch it.
  spit(path, good.substr(0, good.size() - 7));
  EXPECT_THROW(ckpt::read_file(path), CheckpointError);

  // Unsupported future schema version.
  std::string future = good;
  future.replace(future.find(" 1\n"), 3, " 99\n");
  spit(path, future);
  EXPECT_THROW(ckpt::read_file(path), CheckpointError);

  // Not a checkpoint at all.
  spit(path, "not a checkpoint\n");
  EXPECT_THROW(ckpt::read_file(path), CheckpointError);
  spit(path, "");
  EXPECT_THROW(ckpt::read_file(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(CheckpointFile, OnlyTheEncodersExactHeaderIsAccepted) {
  // The CRC covers the payload, not the header, so a header spelled another
  // way must be refused or an accepted file would not re-encode to itself.
  Snapshot snap;
  snap.put_i64("version", 2);
  const std::string good = ckpt::encode_file_bytes(snap);
  EXPECT_NO_THROW(ckpt::decode_file_bytes(good, "good"));
  const std::size_t crc = good.find("crc32 ") + 6;
  const std::size_t space = good.find(' ', good.find("payload"));
  std::string upper = good;
  for (std::size_t i = crc; i < crc + 8; ++i) {
    upper[i] = static_cast<char>(std::toupper(upper[i]));
  }
  ASSERT_NE(upper, good) << "this CRC has no hex letter to raise";
  std::string tab = good;
  tab[space] = '\t';
  std::string padded = good;
  padded.insert(space + 1, "0");
  for (const std::string& bad : {upper, tab, padded}) {
    EXPECT_THROW(ckpt::decode_file_bytes(bad, "bad"), CheckpointError) << bad;
  }
}

TEST(CheckpointFile, AtomicRenameLeavesPriorSnapshotAfterMidWriteKill) {
  const std::string path = temp_path("atomic.ckpt");
  Snapshot first;
  first.put_i64("generation", 1);
  ckpt::write_file(first, path);

  // Simulate a process killed mid-write: a half-written temp file next to
  // the real snapshot. The prior snapshot must stay fully readable, and the
  // next successful save must atomically supersede both.
  spit(path + ".tmp", "genet-checkpoint 1\npayload 999 crc32 0000");
  EXPECT_EQ(ckpt::read_file(path).get_i64("generation"), 1);

  Snapshot second;
  second.put_i64("generation", 2);
  ckpt::write_file(second, path);
  EXPECT_EQ(ckpt::read_file(path).get_i64("generation"), 2);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(CheckpointFile, FailedWriteLeavesNoFileBehind) {
  const std::string path = temp_path("no_such_dir/x.ckpt");
  Snapshot snap;
  snap.put_i64("k", 1);
  EXPECT_THROW(ckpt::write_file(snap, path), CheckpointError);
  EXPECT_FALSE(std::ifstream(path).good());
}

// ------------------------------------------------------- write_file_bytes

/// What write_file_bytes throws as std::runtime_error; "" when it returns.
std::string write_error(const std::string& path, const std::string& bytes) {
  try {
    netgym::write_file_bytes(path, bytes);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(WriteFileBytes, WritesExactlyTheBytesOverAnyOldContents) {
  const std::string path = temp_path("write_file_bytes.bin");
  std::string bytes("nul\0in the middle\n", 19);
  for (int b = 255; b >= 0; --b) bytes.push_back(static_cast<char>(b));
  netgym::write_file_bytes(path, std::string(4096, 'x'));
  netgym::write_file_bytes(path, bytes);
  EXPECT_EQ(slurp(path), bytes);
  netgym::write_file_bytes(path, "");
  EXPECT_EQ(slurp(path), "");
  std::remove(path.c_str());
}

TEST(WriteFileBytes, ThrowsNamingAPathInAMissingDirectory) {
  const std::string path = temp_path("no_such_dir/out.txt");
  EXPECT_NE(write_error(path, "data\n").find("'" + path + "'"),
            std::string::npos);
}

TEST(WriteFileBytes, ThrowsNamingAFullDevice) {
  // Every write to /dev/full fails with ENOSPC; the open succeeds.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string error = write_error("/dev/full", "data\n");
  EXPECT_NE(error.find("'/dev/full'"), std::string::npos) << error;
  EXPECT_EQ(write_error("/dev/full", ""), "");  // nothing to flush
}

// ------------------------------------------------- Serializable round trips

/// Round-trip through an encoded snapshot and assert the re-saved state is
/// byte-identical -- the strongest form of "nothing was lost".
template <typename T>
void expect_state_round_trips(const T& source, T& target,
                              const std::string& prefix = "x/") {
  Snapshot saved;
  source.save_state(saved, prefix);
  target.load_state(Snapshot::decode(saved.encode()), prefix);
  Snapshot resaved;
  target.save_state(resaved, prefix);
  EXPECT_EQ(resaved.encode(), saved.encode());
}

TEST(SerializableRoundTrip, MlpRestoresExactParameterBits) {
  netgym::Rng rng(3);
  nn::Mlp source({4, 8, 3}, nn::Activation::kTanh, rng);
  source.params()[0] = -0.0;
  source.params()[1] = std::numeric_limits<double>::denorm_min();
  nn::Mlp target({4, 8, 3}, nn::Activation::kTanh, rng);
  expect_state_round_trips(source, target);
  for (std::size_t i = 0; i < source.params().size(); ++i) {
    expect_same_bits(target.params()[i], source.params()[i]);
  }
}

TEST(SerializableRoundTrip, MlpRejectsTopologyMismatchWithoutMutating) {
  netgym::Rng rng(3);
  nn::Mlp source({4, 8, 3}, nn::Activation::kTanh, rng);
  Snapshot snap;
  source.save_state(snap, "m/");

  nn::Mlp wrong_sizes({4, 6, 3}, nn::Activation::kTanh, rng);
  const std::vector<double> before = wrong_sizes.params();
  EXPECT_THROW(wrong_sizes.load_state(snap, "m/"), CheckpointError);
  EXPECT_EQ(wrong_sizes.params(), before);

  nn::Mlp wrong_act({4, 8, 3}, nn::Activation::kRelu, rng);
  const std::vector<double> before_act = wrong_act.params();
  EXPECT_THROW(wrong_act.load_state(snap, "m/"), CheckpointError);
  EXPECT_EQ(wrong_act.params(), before_act);

  EXPECT_THROW(source.load_state(snap, "other/"), CheckpointError);
}

TEST(SerializableRoundTrip, AdamRestoresMomentsStepAndLearningRate) {
  nn::Adam source(6, {.lr = 5e-3});
  std::vector<double> params(6, 1.0);
  const std::vector<double> grads{0.1, -0.2, 0.3, -0.4, 0.5, -0.6};
  source.step(params, grads);
  source.step(params, grads);
  source.set_learning_rate(1e-4);

  nn::Adam target(6);
  expect_state_round_trips(source, target);

  // The restored optimizer must continue the exact same trajectory.
  std::vector<double> params_a = params;
  std::vector<double> params_b = params;
  source.step(params_a, grads);
  target.step(params_b, grads);
  EXPECT_EQ(params_a, params_b);

  nn::Adam mismatched(7);
  Snapshot snap;
  source.save_state(snap, "o/");
  EXPECT_THROW(mismatched.load_state(snap, "o/"), CheckpointError);
}

TEST(SerializableRoundTrip, RunningNormRestoresWelfordState) {
  rl::RunningNorm source;
  for (double x : {1.0, 4.0, -2.0, 8.5}) source.update(x);
  rl::RunningNorm target;
  expect_state_round_trips(source, target);
  EXPECT_EQ(target.count(), source.count());
  expect_same_bits(target.mean(), source.mean());
  expect_same_bits(target.stddev(), source.stddev());
}

TEST(SerializableRoundTrip, RngStateRestoresExactStream) {
  netgym::Rng source(99);
  for (int i = 0; i < 17; ++i) source.uniform(0, 1);
  netgym::Rng target(0);
  target.set_state(source.state());
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(target.engine()(), source.engine()());
  }
  // Malformed state throws without perturbing the current stream.
  netgym::Rng untouched(7);
  const std::string before = untouched.state();
  EXPECT_THROW(untouched.set_state("definitely not an engine"),
               std::invalid_argument);
  EXPECT_EQ(untouched.state(), before);
}

TEST(SerializableRoundTrip, ConfigDistributionRestoresMixture) {
  netgym::ConfigSpace space({{"a", 0.0, 10.0}, {"b", 1.0, 2.0}});
  netgym::ConfigDistribution source(space);
  source.promote(netgym::Config{{3.0, 1.5}}, 0.3);
  source.promote(netgym::Config{{7.0, 1.25}}, 0.2);

  netgym::ConfigDistribution target(space);
  expect_state_round_trips(source, target);
  EXPECT_EQ(target.uniform_weight(), source.uniform_weight());
  ASSERT_EQ(target.num_promoted(), 2u);
  EXPECT_EQ(target.promoted()[1].first.values,
            source.promoted()[1].first.values);

  // Arity mismatch against a different space must be rejected untouched.
  netgym::ConfigSpace other_space({{"a", 0.0, 10.0}});
  netgym::ConfigDistribution other(other_space);
  Snapshot snap;
  source.save_state(snap, "d/");
  EXPECT_THROW(other.load_state(snap, "d/"), CheckpointError);
  EXPECT_EQ(other.num_promoted(), 0u);
}

TEST(SerializableRoundTrip, GaussianProcessPredictsIdenticallyAfterReload) {
  bo::GaussianProcess source;
  source.fit({{0.1, 0.2}, {0.8, 0.5}, {0.4, 0.9}}, {1.0, -0.5, 2.0});
  bo::GaussianProcess target;
  expect_state_round_trips(source, target);
  const auto a = source.predict({0.3, 0.3});
  const auto b = target.predict({0.3, 0.3});
  expect_same_bits(b.mean, a.mean);
  expect_same_bits(b.variance, a.variance);

  // An unfitted GP round-trips too (n = 0).
  bo::GaussianProcess empty_src, empty_dst;
  expect_state_round_trips(empty_src, empty_dst);
  EXPECT_FALSE(empty_dst.fitted());
}

TEST(SerializableRoundTrip, BayesianOptimizerProposesIdenticallyAfterReload) {
  bo::BayesianOptimizer source(2, 42);
  netgym::Rng rng(1);
  for (int t = 0; t < 5; ++t) {
    const std::vector<double> x = source.propose();
    source.update(x, rng.uniform(-1, 1));
  }
  bo::BayesianOptimizer target(2, 7);  // different seed: state must win
  expect_state_round_trips(source, target);
  EXPECT_EQ(target.best_point(), source.best_point());
  EXPECT_EQ(target.best_value(), source.best_value());
  EXPECT_EQ(target.propose(), source.propose());

  bo::BayesianOptimizer wrong_dims(3, 42);
  Snapshot snap;
  source.save_state(snap, "bo/");
  EXPECT_THROW(wrong_dims.load_state(snap, "bo/"), CheckpointError);
  EXPECT_EQ(wrong_dims.num_evaluations(), 0);
}

TEST(SerializableRoundTrip, TrainerResumesExactTrajectory) {
  genet::LbAdapter adapter(1);
  netgym::ConfigDistribution dist(adapter.space());
  const rl::EnvFactory factory = adapter.factory_for(dist);

  auto source = adapter.make_trainer(21);
  source->train_iteration(factory);
  source->train_iteration(factory);
  EXPECT_EQ(source->iterations(), 2);

  auto target = adapter.make_trainer(77);  // different seed: state must win
  expect_state_round_trips(*source, *target, "trainer/");
  EXPECT_EQ(target->iterations(), 2);

  // Continuing both trainers yields bit-identical parameters.
  source->train_iteration(factory);
  target->train_iteration(factory);
  EXPECT_EQ(target->snapshot(), source->snapshot());
}

TEST(SerializableRoundTrip, TrainerRejectsMismatchedSnapshotWithoutMutating) {
  genet::LbAdapter lb(1);
  genet::AbrAdapter abr(1);  // different obs/action topology
  auto source = lb.make_trainer(21);
  Snapshot snap;
  source->save_state(snap, "t/");

  auto victim = abr.make_trainer(5);
  Snapshot before;
  victim->save_state(before, "t/");
  EXPECT_THROW(victim->load_state(snap, "t/"), CheckpointError);
  Snapshot after;
  victim->save_state(after, "t/");
  EXPECT_EQ(after.encode(), before.encode());  // fully untouched

  // A snapshot with a corrupted RNG string must also leave the trainer
  // untouched, even though every shape matches.
  Snapshot bad_rng;
  source->save_state(bad_rng, "t/");
  bad_rng.put_string("t/rng", "not an engine state");
  auto twin = lb.make_trainer(21);
  Snapshot twin_before;
  twin->save_state(twin_before, "t/");
  EXPECT_THROW(twin->load_state(bad_rng, "t/"), CheckpointError);
  Snapshot twin_after;
  twin->save_state(twin_after, "t/");
  EXPECT_EQ(twin_after.encode(), twin_before.encode());
}

TEST(SerializableRoundTrip, AbrAdversaryRestoresGeneratorTrainer) {
  netgym::Rng init(4);
  rl::TrainerOptions defaults;
  genet::AbrAdapter adapter(1);
  rl::MlpPolicy victim(adapter.obs_size(), adapter.action_count(),
                       defaults.hidden, init);
  genet::RobustifyOptions options;
  options.adversary_iters = 1;
  genet::AbrAdversary source(victim, options, 11);
  source.train();
  genet::AbrAdversary target(victim, options, 99);
  expect_state_round_trips(source, target, "adv/");
  EXPECT_EQ(target.last_objective(), source.last_objective());
}

}  // namespace
