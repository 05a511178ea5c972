// Throughput harness for the batched math layer and the loops it feeds:
//
//   inference  — ns/sample of the policy MLP under (a) the per-sample
//                forward loop, (b) the strict batched kernels, (c) the
//                fast-mode (AVX2/FMA when available) batched kernels, at
//                batch sizes 1..512, with the batched-vs-scalar speedup;
//   rollout    — env-steps/s of lockstepped rollout collection at 1/2/4/N
//                worker threads;
//   training   — full train_iteration updates/s for the LB A2C and CC PPO
//                trainers (rollout + batched update);
//   gap eval   — lockstep-batched gap-to-baseline evaluations/s, the inner
//                loop of every BO trial.
//
// Besides the human-readable table, the run writes a JSON report (default
// ./BENCH_throughput.json, override with --out) whose schema is validated by
// scripts/check_bench_json.py; CI runs `--quick` and asserts the batched
// path is not slower than the scalar one. The committed BENCH_throughput.json
// at the repo root is a full (non-quick) run.
//
// The inference section also double-checks the determinism contract inline:
// strict batched outputs must be bit-identical to the per-sample loop, and
// fast-mode outputs are reported with their worst relative deviation.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp_common.hpp"
#include "netgym/parallel.hpp"
#include "nn/gemm.hpp"
#include "nn/mlp.hpp"
#include "rl/trainer.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Wall-clock of `reps` calls to `fn`, after one untimed warm-up call.
double time_calls(const std::function<void()>& fn, long reps) {
  fn();
  const auto start = std::chrono::steady_clock::now();
  for (long r = 0; r < reps; ++r) fn();
  return seconds_since(start);
}

struct InferenceRow {
  int batch = 0;
  double scalar_ns = 0.0;  // per sample
  double strict_ns = 0.0;
  double fast_ns = 0.0;
  bool strict_bit_identical = false;
  double fast_max_rel_err = 0.0;
  double strict_speedup() const { return scalar_ns / strict_ns; }
  double fast_speedup() const { return scalar_ns / fast_ns; }
};

// ---------------------------------------------------------------------------
// Raw GEMM core: one hidden-layer-shaped affine transform (W 32x32 + bias),
// batched vs the pre-batching per-sample matvec. This isolates the math core
// the batched layer replaced; the MLP rows below additionally carry the
// activation cost (std::tanh), which is identical on both paths and bounds
// the end-to-end gain (Amdahl).
// ---------------------------------------------------------------------------

std::vector<InferenceRow> bench_gemm(bool quick) {
  const int n_in = 32;
  const int n_out = 32;
  std::vector<double> w(static_cast<std::size_t>(n_out) * n_in);
  std::vector<double> bias(n_out);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = std::sin(0.05 * static_cast<double>(i + 1));
  }
  for (int i = 0; i < n_out; ++i) bias[i] = 0.01 * i;

  const long samples_target = quick ? 400000 : 4000000;
  std::vector<InferenceRow> rows;
  std::vector<double> wt(w.size());
  for (int batch : {1, 8, 32, 128, 512}) {
    std::vector<double> inputs(static_cast<std::size_t>(batch) * n_in);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      inputs[i] = std::cos(0.1 * static_cast<double>(i + 1));
    }
    std::vector<double> out_scalar(static_cast<std::size_t>(batch) * n_out);
    std::vector<double> out_gemm(out_scalar.size());

    // The pre-batching shape: per sample, per output, a dot product over the
    // contiguous weight row.
    const auto scalar_pass = [&] {
      for (int m = 0; m < batch; ++m) {
        const double* a = inputs.data() + static_cast<std::size_t>(m) * n_in;
        double* c = out_scalar.data() + static_cast<std::size_t>(m) * n_out;
        for (int i = 0; i < n_out; ++i) {
          const double* wrow = w.data() + static_cast<std::size_t>(i) * n_in;
          double acc = bias[i];
          for (int j = 0; j < n_in; ++j) acc += wrow[j] * a[j];
          c[i] = acc;
        }
      }
    };
    // The batched layer: bias-row seed, per-call weight transpose (as
    // Mlp::forward_batch does), one GEMM over the whole batch.
    const auto batched_pass = [&] {
      for (int m = 0; m < batch; ++m) {
        std::copy(bias.begin(), bias.end(),
                  out_gemm.begin() + static_cast<std::size_t>(m) * n_out);
      }
      nn::transpose(n_out, n_in, w.data(), wt.data());
      nn::gemm_nn(batch, n_out, n_in, inputs.data(), wt.data(),
                  out_gemm.data());
    };

    InferenceRow row;
    row.batch = batch;
    scalar_pass();
    nn::set_math_mode(nn::MathMode::kStrict);
    batched_pass();
    row.strict_bit_identical =
        std::memcmp(out_gemm.data(), out_scalar.data(),
                    out_scalar.size() * sizeof(double)) == 0;
    nn::set_math_mode(nn::MathMode::kFast);
    batched_pass();
    for (std::size_t i = 0; i < out_scalar.size(); ++i) {
      const double denom = std::max(std::abs(out_scalar[i]), 1e-12);
      row.fast_max_rel_err =
          std::max(row.fast_max_rel_err,
                   std::abs(out_gemm[i] - out_scalar[i]) / denom);
    }
    nn::set_math_mode(nn::MathMode::kStrict);

    const long reps = std::max<long>(1, samples_target / batch);
    const double scalar_s = time_calls(scalar_pass, reps);
    const double strict_s = time_calls(batched_pass, reps);
    nn::set_math_mode(nn::MathMode::kFast);
    const double fast_s = time_calls(batched_pass, reps);
    nn::set_math_mode(nn::MathMode::kStrict);

    const double samples = static_cast<double>(reps) * batch;
    row.scalar_ns = scalar_s / samples * 1e9;
    row.strict_ns = strict_s / samples * 1e9;
    row.fast_ns = fast_s / samples * 1e9;
    rows.push_back(row);
  }
  return rows;
}

struct RolloutRow {
  std::string task;
  int threads = 0;
  double env_steps_per_s = 0.0;
  double speedup_vs_serial = 0.0;
};

struct TrainingRow {
  std::string task;
  std::string algo;
  double updates_per_s = 0.0;
  double env_steps_per_s = 0.0;
};

struct GapEvalRow {
  std::string task;
  std::string baseline;
  double episodes_per_s = 0.0;
};

// ---------------------------------------------------------------------------
// Inference microbenchmark
// ---------------------------------------------------------------------------

std::vector<InferenceRow> bench_inference(bool quick) {
  // A policy-sized net: observation-like input, two hidden layers of 32
  // (TrainerOptions defaults), a discrete action head.
  const std::vector<int> sizes{16, 32, 32, 8};
  netgym::Rng rng(42);
  nn::Mlp net(sizes, nn::Activation::kTanh, rng);
  const int in = sizes.front();
  const int out = sizes.back();

  const long samples_target = quick ? 200000 : 2000000;
  std::vector<InferenceRow> rows;
  for (int batch : {1, 8, 32, 128, 512}) {
    // One fixed input matrix per batch size (values don't affect timing).
    std::vector<double> inputs(static_cast<std::size_t>(batch) * in);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      inputs[i] = std::sin(0.1 * static_cast<double>(i + 1));
    }
    InferenceRow row;
    row.batch = batch;

    // Reference outputs via the per-sample loop (row-major out matrix).
    std::vector<double> reference(static_cast<std::size_t>(batch) * out);
    std::vector<double> one(static_cast<std::size_t>(in));
    for (int b = 0; b < batch; ++b) {
      std::copy(inputs.begin() + static_cast<std::size_t>(b) * in,
                inputs.begin() + static_cast<std::size_t>(b + 1) * in,
                one.begin());
      const std::vector<double>& y = net.forward(one);
      std::copy(y.begin(), y.end(),
                reference.begin() + static_cast<std::size_t>(b) * out);
    }

    nn::set_math_mode(nn::MathMode::kStrict);
    const std::vector<double>& strict_out =
        net.forward_batch(inputs.data(), static_cast<std::size_t>(batch));
    row.strict_bit_identical =
        std::memcmp(strict_out.data(), reference.data(),
                    reference.size() * sizeof(double)) == 0;

    nn::set_math_mode(nn::MathMode::kFast);
    const std::vector<double>& fast_out =
        net.forward_batch(inputs.data(), static_cast<std::size_t>(batch));
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const double denom = std::max(std::abs(reference[i]), 1e-12);
      row.fast_max_rel_err = std::max(
          row.fast_max_rel_err, std::abs(fast_out[i] - reference[i]) / denom);
    }
    nn::set_math_mode(nn::MathMode::kStrict);

    const long reps = std::max<long>(1, samples_target / batch);
    const double scalar_s = time_calls(
        [&] {
          for (int b = 0; b < batch; ++b) {
            std::copy(inputs.begin() + static_cast<std::size_t>(b) * in,
                      inputs.begin() + static_cast<std::size_t>(b + 1) * in,
                      one.begin());
            net.forward(one);
          }
        },
        reps);
    const double strict_s = time_calls(
        [&] { net.forward_batch(inputs.data(), static_cast<std::size_t>(batch)); },
        reps);
    nn::set_math_mode(nn::MathMode::kFast);
    const double fast_s = time_calls(
        [&] { net.forward_batch(inputs.data(), static_cast<std::size_t>(batch)); },
        reps);
    nn::set_math_mode(nn::MathMode::kStrict);

    const double samples = static_cast<double>(reps) * batch;
    row.scalar_ns = scalar_s / samples * 1e9;
    row.strict_ns = strict_s / samples * 1e9;
    row.fast_ns = fast_s / samples * 1e9;
    rows.push_back(row);
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Rollout / training / gap-eval workloads
// ---------------------------------------------------------------------------

std::size_t rollout_workload(const genet::TaskAdapter& adapter, int episodes) {
  netgym::Rng init(1);
  rl::TrainerOptions defaults;
  rl::MlpPolicy policy(adapter.obs_size(), adapter.action_count(),
                       defaults.hidden, init);
  netgym::ConfigDistribution dist(adapter.space());
  const rl::EnvFactory factory = adapter.factory_for(dist);
  netgym::Rng rng(7);
  const rl::RolloutBatch batch = rl::collect_batch(
      policy, factory, rng, episodes, defaults.max_steps_per_episode);
  return batch.size();
}

std::vector<RolloutRow> bench_rollout(const genet::TaskAdapter& adapter,
                                      const std::string& task, bool quick) {
  const int episodes = quick ? 16 : 64;
  const int hw = []() {
    netgym::set_num_threads(0);
    return netgym::num_threads();
  }();
  std::vector<int> counts{1, 2, 4};
  if (hw > 4) counts.push_back(hw);
  std::vector<RolloutRow> rows;
  double serial_rate = 0.0;
  for (int threads : counts) {
    netgym::set_num_threads(threads);
    std::size_t steps = 0;
    const double elapsed =
        time_calls([&] { steps = rollout_workload(adapter, episodes); }, 1);
    RolloutRow row;
    row.task = task;
    row.threads = threads;
    row.env_steps_per_s = static_cast<double>(steps) / elapsed;
    if (threads == 1) serial_rate = row.env_steps_per_s;
    row.speedup_vs_serial = row.env_steps_per_s / serial_rate;
    rows.push_back(row);
  }
  netgym::set_num_threads(0);
  return rows;
}

TrainingRow bench_training(const genet::TaskAdapter& adapter,
                           const std::string& task, const std::string& algo,
                           bool quick) {
  const int iterations = quick ? 2 : 8;
  auto trainer = adapter.make_trainer(/*seed=*/1);
  netgym::ConfigDistribution dist(adapter.space());
  const rl::EnvFactory factory = adapter.factory_for(dist);
  trainer->train_iteration(factory);  // warm-up (pool + first allocations)
  long steps = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    steps += trainer->train_iteration(factory).steps;
  }
  const double elapsed = seconds_since(start);
  TrainingRow row;
  row.task = task;
  row.algo = algo;
  row.updates_per_s = iterations / elapsed;
  row.env_steps_per_s = static_cast<double>(steps) / elapsed;
  return row;
}

GapEvalRow bench_gap_eval(const genet::TaskAdapter& adapter,
                          const std::string& task,
                          const std::string& baseline, bool quick) {
  const int envs = quick ? 12 : 48;
  netgym::Rng init(1);
  rl::TrainerOptions defaults;
  rl::MlpPolicy policy(adapter.obs_size(), adapter.action_count(),
                       defaults.hidden, init);
  policy.set_greedy(true);
  const double elapsed = time_calls(
      [&] {
        netgym::Rng rng(13);
        genet::gap_to_baseline(adapter, policy, baseline,
                               adapter.space().midpoint(), envs, rng);
      },
      1);
  GapEvalRow row;
  row.task = task;
  row.baseline = baseline;
  // Each env evaluates one RL episode plus one baseline episode.
  row.episodes_per_s = 2.0 * envs / elapsed;
  return row;
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

void write_json(const std::string& path, bool quick,
                const std::vector<InferenceRow>& gemm,
                const std::vector<InferenceRow>& inference,
                const std::vector<RolloutRow>& rollout,
                const std::vector<TrainingRow>& training,
                const std::vector<GapEvalRow>& gap_eval) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  char buf[256];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  const auto rows_json = [&](const std::vector<InferenceRow>& rows) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const InferenceRow& r = rows[i];
      out << "    {\"batch\": " << r.batch
          << ", \"scalar_ns_per_sample\": " << num(r.scalar_ns)
          << ", \"strict_ns_per_sample\": " << num(r.strict_ns)
          << ", \"fast_ns_per_sample\": " << num(r.fast_ns)
          << ", \"strict_speedup\": " << num(r.strict_speedup())
          << ", \"fast_speedup\": " << num(r.fast_speedup())
          << ", \"strict_bit_identical\": "
          << (r.strict_bit_identical ? "true" : "false")
          << ", \"fast_max_rel_err\": " << num(r.fast_max_rel_err) << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
  };
  double speedup_at_32 = 0.0;
  double fast_speedup_at_32 = 0.0;
  for (const InferenceRow& r : gemm) {
    if (r.batch == 32) {
      speedup_at_32 = r.strict_speedup();
      fast_speedup_at_32 = r.fast_speedup();
    }
  }
  double mlp_speedup_at_32 = 0.0;
  for (const InferenceRow& r : inference) {
    if (r.batch == 32) mlp_speedup_at_32 = r.strict_speedup();
  }
  out << "{\n";
  out << "  \"bench\": \"throughput\",\n";
  out << "  \"schema_version\": 1,\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "  \"threads_available\": " << netgym::num_threads() << ",\n";
  out << "  \"cpu_avx2_fma\": " << (nn::cpu_has_avx2_fma() ? "true" : "false")
      << ",\n";
  out << "  \"gemm\": [\n";
  rows_json(gemm);
  out << "  ],\n";
  out << "  \"inference\": [\n";
  rows_json(inference);
  out << "  ],\n";
  out << "  \"rollout\": [\n";
  for (std::size_t i = 0; i < rollout.size(); ++i) {
    const RolloutRow& r = rollout[i];
    out << "    {\"task\": \"" << r.task << "\", \"threads\": " << r.threads
        << ", \"env_steps_per_s\": " << num(r.env_steps_per_s)
        << ", \"speedup_vs_serial\": " << num(r.speedup_vs_serial) << "}"
        << (i + 1 < rollout.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"training\": [\n";
  for (std::size_t i = 0; i < training.size(); ++i) {
    const TrainingRow& r = training[i];
    out << "    {\"task\": \"" << r.task << "\", \"algo\": \"" << r.algo
        << "\", \"updates_per_s\": " << num(r.updates_per_s)
        << ", \"env_steps_per_s\": " << num(r.env_steps_per_s) << "}"
        << (i + 1 < training.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"gap_eval\": [\n";
  for (std::size_t i = 0; i < gap_eval.size(); ++i) {
    const GapEvalRow& r = gap_eval[i];
    out << "    {\"task\": \"" << r.task << "\", \"baseline\": \""
        << r.baseline << "\", \"episodes_per_s\": " << num(r.episodes_per_s)
        << "}" << (i + 1 < gap_eval.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"summary\": {\"batched_speedup_at_32\": " << num(speedup_at_32)
      << ", \"fast_speedup_at_32\": " << num(fast_speedup_at_32)
      << ", \"mlp_strict_speedup_at_32\": " << num(mlp_speedup_at_32)
      << ", \"target_speedup_at_32\": 2.0}\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bool quick = false;
  std::string out_path = "BENCH_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[i + 1];
      ++i;
    }
  }

  bench::print_header(
      "Throughput - batched inference, rollout, training, gap evaluation",
      "batched GEMM core: >= 2x inference throughput at batch 32 with "
      "bit-identical strict-mode results");

  const auto print_rows = [](const std::vector<InferenceRow>& rows) {
    std::printf("  %6s %12s %12s %12s %9s %9s  %s\n", "batch", "scalar",
                "strict", "fast", "strict x", "fast x", "checks");
    for (const InferenceRow& r : rows) {
      std::printf(
          "  %6d %12.1f %12.1f %12.1f %8.2fx %8.2fx  %s, rel err %.1e\n",
          r.batch, r.scalar_ns, r.strict_ns, r.fast_ns, r.strict_speedup(),
          r.fast_speedup(),
          r.strict_bit_identical ? "bit-identical" : "MISMATCH",
          r.fast_max_rel_err);
    }
  };
  const auto all_bit_identical = [](const std::vector<InferenceRow>& rows) {
    for (const InferenceRow& r : rows) {
      if (!r.strict_bit_identical) {
        std::fprintf(stderr,
                     "error: strict batched result differs from per-sample "
                     "result at batch %d\n",
                     r.batch);
        return false;
      }
    }
    return true;
  };

  std::printf("\ngemm core (affine layer 32x32 + bias, ns/sample)\n");
  const std::vector<InferenceRow> gemm = bench_gemm(quick);
  print_rows(gemm);
  if (!all_bit_identical(gemm)) return 1;

  std::printf("\ninference (MLP 16-32-32-8 forward incl. tanh, ns/sample)\n");
  const std::vector<InferenceRow> inference = bench_inference(quick);
  print_rows(inference);
  if (!all_bit_identical(inference)) return 1;

  auto abr = genet::make_adapter("abr", 3);
  auto cc = genet::make_adapter("cc", 3);
  auto lb = genet::make_adapter("lb", 3);

  std::printf("\nrollout collection (ABR, %d episodes, lockstep)\n",
              quick ? 16 : 64);
  const std::vector<RolloutRow> rollout = bench_rollout(*abr, "abr", quick);
  for (const RolloutRow& r : rollout) {
    std::printf("  %2d threads: %10.0f env-steps/s   speedup %.2fx\n",
                r.threads, r.env_steps_per_s, r.speedup_vs_serial);
  }

  std::printf("\ntraining iterations (batched update path)\n");
  std::vector<TrainingRow> training;
  training.push_back(bench_training(*lb, "lb", "a2c", quick));
  training.push_back(bench_training(*cc, "cc", "ppo", quick));
  for (const TrainingRow& r : training) {
    std::printf("  %-3s %-4s: %6.2f updates/s  %10.0f env-steps/s\n",
                r.task.c_str(), r.algo.c_str(), r.updates_per_s,
                r.env_steps_per_s);
  }

  std::printf("\ngap-to-baseline evaluation (lockstep batched)\n");
  std::vector<GapEvalRow> gap_eval;
  gap_eval.push_back(bench_gap_eval(*abr, "abr", "mpc", quick));
  gap_eval.push_back(bench_gap_eval(*cc, "cc", "bbr", quick));
  for (const GapEvalRow& r : gap_eval) {
    std::printf("  %-3s vs %-6s: %8.1f episodes/s\n", r.task.c_str(),
                r.baseline.c_str(), r.episodes_per_s);
  }

  write_json(out_path, quick, gemm, inference, rollout, training, gap_eval);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
