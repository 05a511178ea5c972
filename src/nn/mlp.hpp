#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "netgym/checkpoint.hpp"
#include "netgym/parallel.hpp"
#include "netgym/rng.hpp"

namespace nn {

class Adam;

/// Rows per block of a batched pass. A batch of `n` rows is cut into
/// `row_blocks(n)` blocks of this many rows (the last one shorter), a split
/// that depends on `n` alone and never on the thread count.
inline constexpr std::size_t kRowBlock = 256;

inline std::size_t row_blocks(std::size_t n) {
  return (n + kRowBlock - 1) / kRowBlock;
}

/// Runs `fn(begin, end)` once per row block of `[0, n)`. Two or more blocks
/// run on the global pool (netgym::parallel_for_each, so a call from inside
/// a pool item stays inline); a batch of one block calls `fn(0, n)` directly.
/// `fn` must write only state owned by its rows, which makes the result
/// independent of the schedule. Wrapping `fn` by reference keeps the pool's
/// std::function within its small-object buffer, so a call allocates nothing.
template <typename Fn>
void for_each_row_block(std::size_t n, Fn&& fn) {
  const std::size_t blocks = row_blocks(n);
  if (blocks < 2) {
    fn(std::size_t{0}, n);
    return;
  }
  netgym::parallel_for_each(blocks, [&fn, n](std::size_t b) {
    const std::size_t begin = b * kRowBlock;
    fn(begin, std::min(n, begin + kRowBlock));
  });
}

/// Hidden-layer activation of an `Mlp`. The output layer is always linear
/// (policy heads apply softmax themselves; value heads are scalar).
enum class Activation { kTanh, kRelu };

/// A small fully-connected network with flat parameter storage and a batched
/// compute core.
///
/// All weights and biases live in one contiguous vector (`params()`), with a
/// parallel gradient vector (`grads()`), so optimizers operate on flat arrays
/// and snapshotting a policy is a vector copy. The layout per layer `l`
/// (input width `n_in`, output width `n_out`) is a row-major `n_out x n_in`
/// weight block followed by `n_out` biases.
///
/// The batched entry points (`forward_batch` / `backward_batch`) run N
/// samples through the cache-blocked GEMM kernels in nn/gemm.hpp and reuse
/// member scratch buffers, so steady-state calls perform no heap
/// allocations. A batched forward multiplies by each layer's transposed
/// weight block, which the net keeps beside `params_` and rebuilds only on
/// the first batched forward after the parameters change. That is why no
/// mutable reference to the parameters leaves the class: they change only
/// through `set_params`, `load_state`, copy-assignment and `apply`, and each
/// marks the transposes stale. The per-sample `forward` / `backward` are thin
/// N=1 wrappers over the same machinery. Under the default strict math mode
/// (see nn::MathMode) a batched pass is bit-identical to looping the
/// per-sample one, for both outputs and accumulated gradients.
///
/// Both batched passes run in `kRowBlock`-row blocks on the global pool
/// (`for_each_row_block`): every row's forward and input gradient depend only
/// on that row, and each parameter gradient is accumulated by one block over
/// all rows in ascending order, so the bits do not depend on the thread count.
///
/// `forward_batch` caches the batch's per-layer activations; `backward_batch`
/// consumes that cache, so the call pattern is forward -> backward with a
/// matching batch size. Gradients accumulate across calls until
/// `zero_grad()`.
///
/// Copying an `Mlp` copies topology, parameters, and gradients but not the
/// transient forward cache, the transposed weights or scratch buffers (a copy
/// cannot call `backward` before its own `forward`); rollout workers clone
/// policies per job, so keeping multi-megabyte batch scratch out of the copy
/// matters.
class Mlp : public netgym::checkpoint::Serializable {
 public:
  /// `sizes` lists the widths of every layer, e.g. {10, 32, 32, 6} is a net
  /// with 10 inputs, two hidden layers of 32, and 6 outputs. Weights are
  /// Xavier-initialized from `rng`.
  Mlp(std::vector<int> sizes, Activation activation, netgym::Rng& rng);

  Mlp(const Mlp& other);
  Mlp& operator=(const Mlp& other);
  Mlp(Mlp&&) = default;
  Mlp& operator=(Mlp&&) = default;

  int input_size() const { return sizes_.front(); }
  int output_size() const { return sizes_.back(); }

  /// Run the network on one sample; returns the (linear) output layer
  /// values. The reference points into member scratch and is valid until the
  /// next forward/backward call on this network (copy it to keep it).
  const std::vector<double>& forward(const std::vector<double>& input);

  /// Backpropagate `dL/doutput` through the cached forward pass, accumulating
  /// parameter gradients. Must follow a `forward` call.
  void backward(const std::vector<double>& grad_output);

  /// Run `n` samples (row-major `n x input_size`) through the network in one
  /// batched pass. Returns the `n x output_size` output matrix, which points
  /// into member scratch and is valid until the next forward/backward call.
  const std::vector<double>& forward_batch(const double* inputs,
                                           std::size_t n);

  /// Backpropagate a batch of output gradients (row-major
  /// `n x output_size`) through the cached batched forward pass,
  /// accumulating parameter gradients exactly as if the samples had been
  /// processed one by one in row order. `n` must match the cached batch.
  void backward_batch(const double* grad_outputs, std::size_t n);

  void zero_grad();

  const std::vector<double>& params() const { return params_; }
  std::vector<double>& grads() { return grads_; }
  const std::vector<double>& grads() const { return grads_; }

  /// Replace all parameters (sizes must match); used to restore snapshots.
  void set_params(const std::vector<double>& params);

  /// One optimizer step on the parameters from the accumulated gradients
  /// (`Adam::step`; the optimizer must be sized for this net).
  void apply(Adam& optimizer);

  std::size_t num_params() const { return params_.size(); }

  /// Checkpoint hooks: saves the topology (sizes, activation) alongside the
  /// exact parameter bit patterns; load validates the topology against this
  /// network before touching `params_` (gradients and the forward cache are
  /// transient and deliberately not persisted).
  void save_state(netgym::checkpoint::Snapshot& snap,
                  const std::string& prefix) const override;
  void load_state(const netgym::checkpoint::Snapshot& snap,
                  const std::string& prefix) override;

 private:
  /// The transposed weight blocks (see `wt_`), rebuilt here when stale.
  const double* transposed_weights();
  /// Rows [begin, end) of an `n`-row forward through every layer (`wt` is
  /// the transposed weights; unused when n == 1).
  void forward_rows(const double* inputs, std::size_t n, const double* wt,
                    std::size_t begin, std::size_t end);
  /// Layer `li` of an `n`-row backward for the row block [begin, end): its
  /// rows of the input gradient (`prev_delta_`) and its share of the layer's
  /// output units in the weight and bias gradients.
  void backward_rows(std::size_t li, std::size_t n, std::size_t begin,
                     std::size_t end);

  std::vector<int> sizes_;
  Activation activation_;
  std::vector<double> params_;
  std::vector<double> grads_;
  std::vector<std::size_t> weight_offsets_;  // per layer
  std::vector<std::size_t> bias_offsets_;    // per layer

  // Batched forward-pass cache, reused across calls (buffers only grow):
  // acts_[0] is the n x input batch, acts_[l+1] the n x width post-activation
  // output of layer l; zs_[l] the layer's n x width pre-activation.
  std::vector<std::vector<double>> acts_;
  std::vector<std::vector<double>> zs_;
  // Transposed weight blocks: layer l's n_in x n_out transpose sits at
  // weight_offsets_[l] (bias slots unused). Derived from params_, so never
  // copied or checkpointed; rebuilt by the first batched forward after
  // wt_stale_ is set.
  std::vector<double> wt_;
  bool wt_stale_ = true;
  std::vector<double> delta_;          // n x width, dL/dz of current layer
  std::vector<double> prev_delta_;     // n x width of the layer below
  std::size_t cached_rows_ = 0;        // 0 = no valid forward cache
};

/// Numerically stable softmax.
std::vector<double> softmax(const std::vector<double>& logits);

/// Softmax of one `width`-wide row into `probs` (may not alias `logits`).
/// Identical arithmetic to `softmax`, allocation-free.
void softmax_row(const double* logits, int width, double* probs);

/// log(softmax(logits)[index]) computed stably.
double log_softmax_at(const std::vector<double>& logits, int index);

/// Row variant of `log_softmax_at`, identical arithmetic.
double log_softmax_row_at(const double* logits, int width, int index);

}  // namespace nn
