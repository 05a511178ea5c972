#include "exp_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "flag_tables.hpp"
#include "netgym/checkpoint.hpp"
#include "netgym/flags.hpp"
#include "netgym/obs.hpp"
#include "netgym/parallel.hpp"
#include "netgym/telemetry.hpp"
#include "nn/gemm.hpp"

namespace bench {

namespace {

std::string g_checkpoint_dir;
netgym::obs::Session* g_session = nullptr;  // opened by print_header

/// Snapshot path for one zoo training run; "" when checkpointing is off.
/// Creating the directory lazily keeps --checkpoint-dir side-effect free for
/// harnesses that end up fully cache-hitting the model zoo.
std::string checkpoint_path_for(const std::string& key) {
  if (g_checkpoint_dir.empty()) return "";
  std::filesystem::create_directories(g_checkpoint_dir);
  return (std::filesystem::path(g_checkpoint_dir) / (key + ".ckpt")).string();
}

}  // namespace

int traditional_iterations(const std::string& task) {
  if (task == "abr") return 6000;
  if (task == "cc") return 600;
  if (task == "lb") return 720;
  throw std::invalid_argument("traditional_iterations: unknown task " + task);
}

genet::CurriculumOptions curriculum_options(const std::string& task,
                                            std::uint64_t seed) {
  genet::CurriculumOptions options;
  options.rounds = 9;
  options.iters_per_round = traditional_iterations(task) / options.rounds;
  options.seed = seed;
  return options;
}

genet::SearchOptions search_options() {
  genet::SearchOptions options;
  options.bo_trials = 15;
  options.envs_per_eval = 10;
  return options;
}

std::vector<double> traditional_params(genet::ModelZoo& zoo,
                                       const genet::TaskAdapter& adapter,
                                       std::uint64_t seed, int iterations) {
  const std::string key = adapter.name() + "-rl" +
                          std::to_string(adapter.space_id()) + "-seed" +
                          std::to_string(seed) + "-it" +
                          std::to_string(iterations);
  // Spec-describable trainings (synthetic-only adapters) go through the
  // batch path so a dist::Coordinator's train-model hook can ship them to
  // worker processes; results are bit-identical either way because the
  // worker rebuilds the same adapter from the spec and runs the same
  // train_traditional. Checkpoint-dir resume stays local: mid-training
  // snapshots are a coordinator-side feature the workers don't have.
  if (!zoo.contains(key) && g_checkpoint_dir.empty() &&
      !adapter.dist_spec().empty()) {
    genet::ModelZoo::TrainSpec spec;
    spec.key = key;
    spec.adapter_spec = adapter.dist_spec();
    spec.iterations = iterations;
    spec.seed = seed;
    std::fprintf(stderr, "[train] %s ...\n", key.c_str());
    return zoo.get_or_train_batch({spec}).front();
  }
  return zoo.get_or_train(key, [&] {
    std::fprintf(stderr, "[train] %s ...\n", key.c_str());
    const std::string ckpt = checkpoint_path_for(key);
    if (ckpt.empty()) {
      return genet::train_traditional(adapter, iterations, seed)->snapshot();
    }
    std::unique_ptr<rl::ActorCriticBase> trainer = adapter.make_trainer(seed);
    if (std::filesystem::exists(ckpt)) {
      trainer->load_state(netgym::checkpoint::read_file(ckpt), "trainer/");
      std::fprintf(stderr, "[resume] %s from iteration %ld\n", key.c_str(),
                   trainer->iterations());
    }
    netgym::ConfigDistribution dist(adapter.space());
    const rl::EnvFactory factory = adapter.factory_for(dist);
    for (long i = trainer->iterations(); i < iterations; ++i) {
      trainer->train_iteration(factory);
      if ((i + 1) % 10 == 0 || i + 1 == iterations) {
        netgym::checkpoint::Snapshot snap;
        trainer->save_state(snap, "trainer/");
        netgym::checkpoint::write_file(snap, ckpt);
      }
    }
    return trainer->snapshot();
  });
}

std::vector<double> genet_params(genet::ModelZoo& zoo,
                                 const genet::TaskAdapter& adapter,
                                 const std::string& baseline,
                                 std::uint64_t seed) {
  const std::string key =
      adapter.name() + "-genet-" + baseline + "-seed" + std::to_string(seed);
  return curriculum_params(
      zoo, adapter, key,
      [&] {
        return std::make_unique<genet::GenetScheme>(baseline,
                                                    search_options());
      },
      seed);
}

std::vector<double> curriculum_params(
    genet::ModelZoo& zoo, const genet::TaskAdapter& adapter,
    const std::string& key,
    const std::function<std::unique_ptr<genet::CurriculumScheme>()>&
        make_scheme,
    std::uint64_t seed) {
  return zoo.get_or_train(key, [&] {
    std::fprintf(stderr, "[train] %s ...\n", key.c_str());
    const genet::CurriculumOptions options =
        curriculum_options(adapter.name(), seed);
    genet::CurriculumTrainer trainer(adapter, make_scheme(), options);
    const std::string ckpt = checkpoint_path_for(key);
    if (!ckpt.empty() && std::filesystem::exists(ckpt)) {
      trainer.load_checkpoint(ckpt);
      std::fprintf(stderr, "[resume] %s from round %d\n", key.c_str(),
                   trainer.rounds_completed());
    }
    while (trainer.rounds_completed() < options.rounds) {
      trainer.run_round();
      if (!ckpt.empty()) trainer.save_checkpoint(ckpt);
    }
    return trainer.trainer().snapshot();
  });
}

void parallel_sweep(int n, std::uint64_t seed,
                    const std::function<void(int, netgym::Rng&)>& body) {
  if (n <= 0) return;
  netgym::Rng root(seed);
  std::vector<netgym::Rng> streams;
  streams.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) streams.push_back(root.fork());
  netgym::parallel_for_each(static_cast<std::size_t>(n), [&](std::size_t i) {
    body(static_cast<int>(i), streams[i]);
  });
}

void print_header(int argc, char** argv, const std::string& experiment,
                  const std::string& claim) {
  const netgym::flags::Args args = netgym::flags::parse_or_exit(
      {netgym::flags::tables::kBench, netgym::obs::kFlags},
      std::filesystem::path(argv[0]).filename().string(), argc, argv);
  if (args.has("threads")) {
    netgym::set_num_threads(static_cast<int>(args.integer("threads")));
  }
  g_checkpoint_dir = args.text("checkpoint-dir");
  try {
    // Never destroyed: finish() closes it, and main's exit status reports
    // an output it could not write.
    g_session = new netgym::obs::Session(netgym::obs::parse(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
  netgym::telemetry::log_event("run_start", 0,
                               {{"experiment", experiment}, {"claim", claim}});
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", claim.c_str());
  std::printf("math: %s (%s kernels)\n", nn::math_mode_name(nn::math_mode()),
              nn::active_kernel_name());
  std::printf("================================================================\n");
}

int finish() {
  try {
    if (g_session != nullptr) g_session->close();
    netgym::flush_stdout();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

void print_row(const std::string& label, const std::vector<double>& values,
               int width, int precision) {
  std::printf("%-28s", label.c_str());
  for (double v : values) std::printf(" %*.*f", width, precision, v);
  std::printf("\n");
}

}  // namespace bench
