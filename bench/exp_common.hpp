#pragma once

// Shared machinery of the experiment harnesses in bench/. Each binary
// regenerates one table or figure of the paper; models that several figures
// share (the RL1/RL2/RL3 and Genet policies per task) are trained once and
// cached in a ModelZoo directory (./genet_models by default, override with
// GENET_MODEL_DIR). Training is deterministic from the seed, so a cold
// cache reproduces identical numbers.
//
// Budgets are scaled to a single core (see DESIGN.md S4, substitution 6):
// the paper trained on clusters; we keep the comparative structure, not the
// absolute sample counts.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "genet/adapter.hpp"
#include "genet/curriculum.hpp"
#include "genet/zoo.hpp"
#include "rl/policy.hpp"

namespace bench {

/// Per-task training budgets (iterations of the task's trainer).
int traditional_iterations(const std::string& task);

/// Curriculum schedule with the same total training budget as the
/// traditional runs: 9 rounds (S4.2) of budget/9 iterations.
genet::CurriculumOptions curriculum_options(const std::string& task,
                                            std::uint64_t seed);

/// BO search options used by every curriculum harness (paper defaults:
/// 15 trials, k = 10 envs per gap estimate).
genet::SearchOptions search_options();

/// Train (or load from the zoo) a traditionally trained policy on the
/// adapter's space; key example: "abr-rl3-seed1-it3000".
std::vector<double> traditional_params(genet::ModelZoo& zoo,
                                       const genet::TaskAdapter& adapter,
                                       std::uint64_t seed, int iterations);

/// Train (or load) a Genet-curriculum policy guided by `baseline`.
std::vector<double> genet_params(genet::ModelZoo& zoo,
                                 const genet::TaskAdapter& adapter,
                                 const std::string& baseline,
                                 std::uint64_t seed);

/// Train (or load) a policy under an arbitrary curriculum scheme; the key
/// must uniquely describe the scheme.
std::vector<double> curriculum_params(
    genet::ModelZoo& zoo, const genet::TaskAdapter& adapter,
    const std::string& key,
    const std::function<std::unique_ptr<genet::CurriculumScheme>()>&
        make_scheme,
    std::uint64_t seed);

/// Per-config sweep engine: runs `body(index, rng)` for every index in
/// [0, n) across the global netgym thread pool. One RNG stream per index is
/// forked serially from `seed` before any work starts, so results are
/// bit-identical at any thread count; `body` must only write per-index
/// state (its own result slots) and must build its own policies/trainers
/// rather than sharing mutable ones across indices.
void parallel_sweep(int n, std::uint64_t seed,
                    const std::function<void(int, netgym::Rng&)>& body);

/// Every harness leads with the experiment id and what the paper's version
/// of the plot shows. `print_header` first parses argv against kBench +
/// obs::kFlags (flag_tables.hpp; --help lists them), then opens the one
/// obs::Session, live until finish(), and logs "run_start". Call it first.
void print_header(int argc, char** argv, const std::string& experiment,
                  const std::string& claim);
/// Every harness ends with `return bench::finish();`: it closes the Session
/// and flushes stdout, and an output it cannot write (stdout included)
/// prints "error: ..." and returns 1.
int finish();
void print_row(const std::string& label, const std::vector<double>& values,
               int width = 10, int precision = 3);

}  // namespace bench
