// Regenerates the reference checkpoints under tests/data/ that
// golden_checkpoint_test.cpp loads. The goldens pin backward compatibility:
// today's files must keep loading in every future build, so ONLY rerun this
// tool on a deliberate format change (bump
// netgym::checkpoint::kFormatVersion, keep decode support for version 1,
// and add new goldens next to the old ones rather than replacing them).
//
// Usage: make_golden_checkpoints <output-dir>
//
// The constants here (kGoldenMlpParams, seeds, curriculum and PPO options) are
// duplicated in tests/netgym/golden_checkpoint_test.cpp; keep them in sync.

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "dist/protocol.hpp"
#include "genet/adapter.hpp"
#include "genet/curriculum.hpp"
#include "netgym/checkpoint.hpp"
#include "netgym/rng.hpp"
#include "netgym/tracing.hpp"
#include "netgym/config.hpp"
#include "nn/mlp.hpp"
#include "rl/policy.hpp"
#include "rl/trainer.hpp"
#include "serve/policy_store.hpp"

namespace {

namespace ckpt = netgym::checkpoint;

// 17 parameters of an Mlp{2, 3, 2}: exactly representable values plus the
// special cases (signed zero, denormal) a lossy text format would destroy.
const std::vector<double> kGoldenMlpParams = {
    0.0,  -0.0, 0.125,  -0.5,    1.5, -2.25,
    3.0,  0.75, -0.75,  std::numeric_limits<double>::denorm_min(),
    2.0,  -3.5, 4.25,   -5.125,  6.0, 0.0078125,
    -1.0};

void write_snapshot_golden(const std::string& dir) {
  ckpt::Snapshot snap;
  snap.put_i64("counters/i", -7);
  snap.put_u64("counters/u", 18446744073709551615ull);
  snap.put_double("values/pi", 3.141592653589793);
  snap.put_double("values/neg_zero", -0.0);
  snap.put_double("values/nan", std::numeric_limits<double>::quiet_NaN());
  snap.put_string("name", std::string("golden\n\x01", 8));
  snap.put_doubles("weights",
                   {1.0, -2.5, 0.0,
                    std::numeric_limits<double>::denorm_min()});
  snap.put_i64s("steps", {-3, 0, 9});
  ckpt::write_file(snap, dir + "/golden_snapshot_v1.ckpt");
}

void write_mlp_golden(const std::string& dir) {
  netgym::Rng rng(0);
  nn::Mlp mlp({2, 3, 2}, nn::Activation::kTanh, rng);
  mlp.set_params(kGoldenMlpParams);
  ckpt::Snapshot snap;
  mlp.save_state(snap, "mlp/");
  ckpt::write_file(snap, dir + "/golden_mlp_v1.ckpt");
}

void write_rng_golden(const std::string& dir) {
  // mt19937_64 raw outputs and its textual state representation are both
  // pinned by the C++ standard, so this golden is portable across standard
  // libraries: state captured mid-stream plus the next three outputs.
  netgym::Rng rng(123);
  for (int i = 0; i < 5; ++i) rng.engine()();
  ckpt::Snapshot snap;
  snap.put_string("rng", rng.state());
  netgym::Rng probe(0);
  probe.set_state(snap.get_string("rng"));
  for (int i = 0; i < 3; ++i) {
    snap.put_u64("next" + std::to_string(i), probe.engine()());
  }
  ckpt::write_file(snap, dir + "/golden_rng_v1.ckpt");
}

void write_curriculum_golden(const std::string& dir) {
  genet::LbAdapter adapter(1);
  genet::SearchOptions search;
  search.bo_trials = 2;
  search.envs_per_eval = 2;
  genet::CurriculumOptions options;
  options.rounds = 2;
  options.iters_per_round = 1;
  options.seed = 11;
  genet::CurriculumTrainer trainer(
      adapter, std::make_unique<genet::GenetScheme>("llf", search), options);
  trainer.run_round();
  trainer.save_checkpoint(dir + "/golden_curriculum_v1.ckpt");
}

void write_ppo_golden(const std::string& dir) {
  // PPO's training bits: a CC trainer (Aurora's PPO) run for three
  // iterations from a fixed seed, saved whole. Unlike the format goldens
  // above, the test re-trains and byte-compares against this file, so it
  // pins the PPO update's numerics (strict math mode) at any thread count.
  // Regenerate only on a deliberate change to those numerics.
  genet::CcAdapter adapter(1);
  const netgym::ConfigDistribution dist(adapter.space());
  const rl::EnvFactory factory = adapter.factory_for(dist);
  const auto trainer = adapter.make_trainer(/*seed=*/31);
  for (int i = 0; i < 3; ++i) trainer->train_iteration(factory);
  ckpt::Snapshot snap;
  trainer->save_state(snap, "trainer/");
  ckpt::write_file(snap, dir + "/golden_ppo_cc_v1.ckpt");
}

void write_policy_goldens(const std::string& dir) {
  // Two serve-format policy checkpoints ({10,32,32,6} topology) with distinct
  // deterministic parameters. v1 is the daemon's startup policy in tests and
  // the CI smoke job; v2 is dropped into the watch directory mid-load to pin
  // the hot-swap path. mt19937_64 init makes the bytes reproducible.
  for (std::uint32_t v = 1; v <= 2; ++v) {
    netgym::Rng rng(v);
    rl::MlpPolicy policy(10, 6, {32, 32}, rng);
    serve::write_policy_checkpoint(
        policy, "golden-serve-v" + std::to_string(v),
        dir + "/golden_policy_v" + std::to_string(v) + ".ckpt");
  }
}

void write_dist_frames_golden(const std::string& dir) {
  // One frame of every dist protocol message, concatenated, with fixed
  // constants. tests/dist/protocol_test.cpp decodes this fixture and
  // re-encodes it byte-for-byte, pinning the wire format (framing, Snapshot
  // field layout, CRC) against accidental change: a new build must keep
  // reading frames an old build wrote. The constants are duplicated there;
  // keep them in sync. Only regenerate on a deliberate protocol bump (new
  // kDistProtocolVersion, new fixture file next to the old one).
  std::string bytes;
  dist::Hello hello;
  hello.math_mode = "strict";
  hello.threads = 2;
  hello.trace_id = 987654321098765ull;
  hello.worker_ordinal = 1;
  hello.trace_enabled = 1;
  hello.trace_capacity = 4096;
  hello.trace_ship_max_bytes = 1048576;
  dist::encode_hello(bytes, hello);
  dist::HelloOk hello_ok;
  hello_ok.pid = 4242;
  dist::encode_hello_ok(bytes, hello_ok);
  dist::EvalSetup setup;
  setup.eval_id = 7;
  setup.adapter_spec = "lb/1";
  setup.kind = "baseline";
  setup.baseline = "llf";
  setup.config = {0.5, -0.0, 1.25, std::numeric_limits<double>::denorm_min()};
  setup.policy_params = {1.0, -2.5, 0.0078125};
  setup.greedy = 1;
  setup.parent_span = 55;
  dist::encode_eval_setup(bytes, setup);
  dist::ItemsRequest items;
  items.eval_id = 7;
  items.first = 3;
  netgym::Rng stream_rng(42);
  items.streams = {stream_rng.state(), stream_rng.fork().state()};
  dist::encode_items_request(bytes, items);
  dist::ItemsResult values;
  values.eval_id = 7;
  values.first = 3;
  values.values = {-0.125, 3.141592653589793};
  // Span batch with a steady-clock ns timestamp above 2^53: pins the exact
  // i64 array encoding (a double would silently truncate it).
  netgym::tracing::RemoteSpan span0;
  span0.name = "worker.eval_item";
  span0.cat = "dist";
  span0.tid = 0;
  span0.start_ns = 9123456789012345678ll;
  span0.dur_ns = 250000;
  span0.index = 3;
  // High-bit span id: pins the u64-as-i64-bit-pattern encoding exactly.
  span0.span_id = 0x8000000000000123ull;
  span0.parent_id = 55;  // = the setup frame's parent_span
  netgym::tracing::RemoteSpan span1;
  span1.name = "worker.eval_item";
  span1.cat = "dist";
  span1.tid = 1;
  span1.start_ns = 9123456789012595678ll;
  span1.dur_ns = 1000;
  span1.index = 4;
  span1.parent_id = 55;
  values.spans.spans = {span0, span1};
  values.spans.dropped = 1;
  dist::encode_items_result(bytes, values);
  dist::TrainRequest train;
  train.train_id = 9;
  train.adapter_spec = "cc/2";
  train.iterations = 120;
  train.seed = 11;
  train.parent_span = 55;
  dist::encode_train_request(bytes, train);
  dist::TrainResult trained;
  trained.train_id = 9;
  trained.params = {0.0, -0.5, 6.0};
  trained.spans.dropped = 2;  // empty batch, only a loss count
  dist::encode_train_result(bytes, trained);
  dist::encode_shutdown(bytes);

  const std::string path = dir + "/golden_dist_frames_v2.bin";
  netgym::write_file_bytes(path, bytes);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_golden_checkpoints <output-dir>\n");
    return 2;
  }
  const std::string dir = argv[1];
  write_snapshot_golden(dir);
  write_mlp_golden(dir);
  write_rng_golden(dir);
  write_curriculum_golden(dir);
  write_ppo_golden(dir);
  write_policy_goldens(dir);
  write_dist_frames_golden(dir);
  std::printf("wrote golden checkpoints to %s\n", dir.c_str());
  return 0;
}
