#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/adam.hpp"
#include "nn/gemm.hpp"

namespace nn {

namespace {

double activate(Activation act, double z) {
  switch (act) {
    case Activation::kTanh:
      return std::tanh(z);
    case Activation::kRelu:
      return z > 0 ? z : 0.0;
  }
  return z;
}

/// Derivative of the activation expressed in terms of a = activate(z), the
/// value the forward pass already cached. For tanh this reuses the exact
/// tanh(z) computed forward (grad = 1 - a^2), so it is bit-identical to
/// recomputing from z while skipping a second std::tanh per element — the
/// backward pass stays free of transcendentals. For ReLU, a > 0 iff z > 0.
double activate_grad_from_act(Activation act, double a) {
  switch (act) {
    case Activation::kTanh:
      return 1.0 - a * a;
    case Activation::kRelu:
      return a > 0 ? 1.0 : 0.0;
  }
  return 1.0;
}

}  // namespace

Mlp::Mlp(std::vector<int> sizes, Activation activation, netgym::Rng& rng)
    : sizes_(std::move(sizes)), activation_(activation) {
  if (sizes_.size() < 2) {
    throw std::invalid_argument("Mlp: need at least input and output layers");
  }
  for (int s : sizes_) {
    if (s <= 0) throw std::invalid_argument("Mlp: layer sizes must be > 0");
  }
  std::size_t total = 0;
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    weight_offsets_.push_back(total);
    total += static_cast<std::size_t>(sizes_[l]) * sizes_[l + 1];
    bias_offsets_.push_back(total);
    total += static_cast<std::size_t>(sizes_[l + 1]);
  }
  params_.resize(total);
  grads_.assign(total, 0.0);
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    const int n_in = sizes_[l];
    const int n_out = sizes_[l + 1];
    const double scale = std::sqrt(2.0 / (n_in + n_out));  // Xavier
    double* w = params_.data() + weight_offsets_[l];
    for (int i = 0; i < n_out * n_in; ++i) w[i] = rng.gaussian(0.0, scale);
    double* b = params_.data() + bias_offsets_[l];
    for (int i = 0; i < n_out; ++i) b[i] = 0.0;
  }
  acts_.resize(sizes_.size());
  zs_.resize(sizes_.size() - 1);
}

Mlp::Mlp(const Mlp& other)
    : netgym::checkpoint::Serializable(other),
      sizes_(other.sizes_),
      activation_(other.activation_),
      params_(other.params_),
      grads_(other.grads_),
      weight_offsets_(other.weight_offsets_),
      bias_offsets_(other.bias_offsets_) {
  // Scratch and the forward cache are deliberately not copied (class comment):
  // a fresh copy starts with an empty cache and allocates scratch on first
  // use, sized to its own batches.
  acts_.resize(sizes_.size());
  zs_.resize(sizes_.size() - 1);
}

Mlp& Mlp::operator=(const Mlp& other) {
  if (this == &other) return *this;
  sizes_ = other.sizes_;
  activation_ = other.activation_;
  params_ = other.params_;
  grads_ = other.grads_;
  weight_offsets_ = other.weight_offsets_;
  bias_offsets_ = other.bias_offsets_;
  acts_.assign(sizes_.size(), {});
  zs_.assign(sizes_.size() - 1, {});
  wt_stale_ = true;
  delta_.clear();
  prev_delta_.clear();
  cached_rows_ = 0;
  return *this;
}

const std::vector<double>& Mlp::forward(const std::vector<double>& input) {
  if (static_cast<int>(input.size()) != sizes_.front()) {
    throw std::invalid_argument("Mlp::forward: input size mismatch");
  }
  return forward_batch(input.data(), 1);
}

void Mlp::backward(const std::vector<double>& grad_output) {
  if (cached_rows_ == 0) {
    throw std::logic_error("Mlp::backward: no cached forward pass");
  }
  if (static_cast<int>(grad_output.size()) != sizes_.back()) {
    throw std::invalid_argument("Mlp::backward: grad size mismatch");
  }
  backward_batch(grad_output.data(), 1);
}

const std::vector<double>& Mlp::forward_batch(const double* inputs,
                                              std::size_t n) {
  if (n == 0) {
    throw std::invalid_argument("Mlp::forward_batch: empty batch");
  }
  const std::size_t num_layers = sizes_.size() - 1;
  std::vector<double>& in = acts_[0];
  in.resize(n * static_cast<std::size_t>(sizes_.front()));
  std::copy(inputs, inputs + in.size(), in.begin());
  for (std::size_t l = 0; l < num_layers; ++l) {
    const int n_in = sizes_[l];
    const int n_out = sizes_[l + 1];
    const double* w = params_.data() + weight_offsets_[l];
    const double* b = params_.data() + bias_offsets_[l];
    const std::vector<double>& a = acts_[l];
    std::vector<double>& z = zs_[l];
    z.resize(n * static_cast<std::size_t>(n_out));
    if (n == 1) {
      // Single-sample fast path: a plain dot product per output reads the
      // weights in place, so a net that only ever acts one sample at a time
      // never builds the transposes. Bit-identical to the batched path in
      // strict mode (both accumulate b[i] then ascending-j products, one
      // rounding per step).
      for (int i = 0; i < n_out; ++i) {
        const double* wrow = w + static_cast<std::size_t>(i) * n_in;
        double acc = b[i];
        for (int j = 0; j < n_in; ++j) acc += wrow[j] * a[j];
        z[static_cast<std::size_t>(i)] = acc;
      }
    } else {
      // z starts as n copies of the bias row, so the accumulating GEMM
      // reproduces the per-sample `acc = b[i]; acc += ...` seeding exactly.
      for (std::size_t m = 0; m < n; ++m) {
        std::copy(b, b + n_out, z.begin() + m * n_out);
      }
      gemm_nn(static_cast<int>(n), n_out, n_in, a.data(),
              transposed_weights() + weight_offsets_[l], z.data());
    }
    std::vector<double>& out = acts_[l + 1];
    out.resize(z.size());
    if (l + 1 == num_layers) {
      std::copy(z.begin(), z.end(), out.begin());
    } else {
      for (std::size_t i = 0; i < z.size(); ++i) {
        out[i] = activate(activation_, z[i]);
      }
    }
  }
  cached_rows_ = n;
  return acts_.back();
}

const double* Mlp::transposed_weights() {
  if (wt_stale_) {
    wt_.resize(params_.size());
    for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
      transpose(sizes_[l + 1], sizes_[l], params_.data() + weight_offsets_[l],
                wt_.data() + weight_offsets_[l]);
    }
    wt_stale_ = false;
  }
  return wt_.data();
}

void Mlp::backward_batch(const double* grad_outputs, std::size_t n) {
  if (cached_rows_ == 0) {
    throw std::logic_error("Mlp::backward_batch: no cached forward pass");
  }
  if (n != cached_rows_) {
    throw std::invalid_argument(
        "Mlp::backward_batch: batch size does not match cached forward pass");
  }
  const std::size_t num_layers = sizes_.size() - 1;
  // delta_ and prev_delta_ ping-pong through std::swap below, so size both
  // for the widest layer up front; otherwise their capacities alternate and
  // a later pass can still allocate despite a same-sized warm-up.
  const std::size_t widest = static_cast<std::size_t>(
      *std::max_element(sizes_.begin(), sizes_.end()));
  delta_.reserve(n * widest);
  prev_delta_.reserve(n * widest);
  delta_.resize(n * static_cast<std::size_t>(sizes_.back()));
  std::copy(grad_outputs, grad_outputs + delta_.size(), delta_.begin());
  for (std::size_t li = num_layers; li-- > 0;) {
    const int n_in = sizes_[li];
    const int n_out = sizes_[li + 1];
    const double* w = params_.data() + weight_offsets_[li];
    double* gw = grads_.data() + weight_offsets_[li];
    double* gb = grads_.data() + bias_offsets_[li];
    const std::vector<double>& a = acts_[li];
    // Bias gradients, sample-outer: each gb[i] receives its per-sample
    // addends in ascending row order, matching a loop of per-sample
    // backward calls.
    for (std::size_t m = 0; m < n; ++m) {
      const double* d = delta_.data() + m * n_out;
      for (int i = 0; i < n_out; ++i) gb[i] += d[i];
    }
    // Weight gradients: gw[i][j] += sum_m delta[m][i] * a[m][j]. gemm_tn
    // accumulates into gw in ascending-sample order — a rank-1 update per
    // row — which is what keeps batched gradient accumulation bit-identical
    // to the sequential per-sample updates (gw may already hold prior
    // batches' gradients, so ordering relative to that seed matters).
    gemm_tn(n_out, n_in, static_cast<int>(n), delta_.data(), a.data(), gw);
    if (li == 0) break;
    prev_delta_.resize(n * static_cast<std::size_t>(n_in));
    std::fill(prev_delta_.begin(), prev_delta_.end(), 0.0);
    // prev_delta[m][j] = sum_i delta[m][i] * w[i][j], ascending i, seeded
    // from 0 — the per-sample code's dot across output units.
    gemm_nn(static_cast<int>(n), n_in, n_out, delta_.data(), w,
            prev_delta_.data());
    const std::vector<double>& a_prev = acts_[li];  // activate(zs_[li-1])
    for (std::size_t i = 0; i < prev_delta_.size(); ++i) {
      prev_delta_[i] *= activate_grad_from_act(activation_, a_prev[i]);
    }
    std::swap(delta_, prev_delta_);
  }
}

void Mlp::zero_grad() { std::fill(grads_.begin(), grads_.end(), 0.0); }

void Mlp::save_state(netgym::checkpoint::Snapshot& snap,
                     const std::string& prefix) const {
  std::vector<std::int64_t> sizes(sizes_.begin(), sizes_.end());
  snap.put_i64s(prefix + "sizes", std::move(sizes));
  snap.put_i64(prefix + "activation", static_cast<std::int64_t>(activation_));
  snap.put_doubles(prefix + "params", params_);
}

void Mlp::load_state(const netgym::checkpoint::Snapshot& snap,
                     const std::string& prefix) {
  const std::vector<std::int64_t>& sizes = snap.get_i64s(prefix + "sizes");
  const std::int64_t activation = snap.get_i64(prefix + "activation");
  const std::vector<double>& params = snap.get_doubles(prefix + "params");
  if (sizes.size() != sizes_.size() ||
      !std::equal(sizes.begin(), sizes.end(), sizes_.begin())) {
    throw netgym::checkpoint::CheckpointError(
        "Mlp::load_state: layer sizes in snapshot do not match this network (" +
        prefix + "sizes)");
  }
  if (activation != static_cast<std::int64_t>(activation_)) {
    throw netgym::checkpoint::CheckpointError(
        "Mlp::load_state: activation mismatch (" + prefix + "activation)");
  }
  if (params.size() != params_.size()) {
    throw netgym::checkpoint::CheckpointError(
        "Mlp::load_state: parameter count mismatch (" + prefix + "params)");
  }
  params_ = params;
  wt_stale_ = true;
  cached_rows_ = 0;
}

void Mlp::set_params(const std::vector<double>& params) {
  if (params.size() != params_.size()) {
    throw std::invalid_argument("Mlp::set_params: size mismatch");
  }
  params_ = params;
  wt_stale_ = true;
}

void Mlp::apply(Adam& optimizer) {
  optimizer.step(params_, grads_);
  wt_stale_ = true;
}

std::vector<double> softmax(const std::vector<double>& logits) {
  if (logits.empty()) throw std::invalid_argument("softmax: empty input");
  std::vector<double> probs(logits.size());
  softmax_row(logits.data(), static_cast<int>(logits.size()), probs.data());
  return probs;
}

void softmax_row(const double* logits, int width, double* probs) {
  const double mx = *std::max_element(logits, logits + width);
  double total = 0.0;
  for (int i = 0; i < width; ++i) {
    probs[i] = std::exp(logits[i] - mx);
    total += probs[i];
  }
  for (int i = 0; i < width; ++i) probs[i] /= total;
}

double log_softmax_at(const std::vector<double>& logits, int index) {
  if (index < 0 || static_cast<std::size_t>(index) >= logits.size()) {
    throw std::invalid_argument("log_softmax_at: index out of range");
  }
  return log_softmax_row_at(logits.data(), static_cast<int>(logits.size()),
                            index);
}

double log_softmax_row_at(const double* logits, int width, int index) {
  const double mx = *std::max_element(logits, logits + width);
  double total = 0.0;
  for (int i = 0; i < width; ++i) total += std::exp(logits[i] - mx);
  return logits[index] - mx - std::log(total);
}

}  // namespace nn
