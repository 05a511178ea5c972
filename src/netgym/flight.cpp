#include "netgym/flight.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <tuple>

#include "netgym/checkpoint.hpp"
#include "netgym/telemetry.hpp"

namespace netgym::flight {

namespace {

/// Submission-order-independent ranking: worse episodes sort first.
bool worse_than(const EpisodeRecord& a, const EpisodeRecord& b) {
  return std::tie(a.mean_reward, a.total_reward, a.steps, a.task) <
         std::tie(b.mean_reward, b.total_reward, b.steps, b.task);
}

void append_jsonl_line(std::string& out, const EpisodeRecord& rec) {
  char buf[96];
  out += "{\"task\":";
  telemetry::json::append_string(out, rec.task);
  out += ",\"total_reward\":";
  telemetry::json::append_double(out, rec.total_reward);
  out += ",\"mean_reward\":";
  telemetry::json::append_double(out, rec.mean_reward);
  std::snprintf(buf, sizeof(buf), ",\"steps\":%" PRId64 ",\"truncated\":%s",
                rec.steps, rec.truncated ? "true" : "false");
  out += buf;
  out += ",\"actions\":[";
  for (std::size_t i = 0; i < rec.actions.size(); ++i) {
    if (i > 0) out.push_back(',');
    std::snprintf(buf, sizeof(buf), "%d", rec.actions[i]);
    out += buf;
  }
  out += "],\"rewards\":[";
  for (std::size_t i = 0; i < rec.rewards.size(); ++i) {
    if (i > 0) out.push_back(',');
    telemetry::json::append_double(out, rec.rewards[i]);
  }
  out += "],\"fields\":{";
  for (std::size_t f = 0; f < rec.field_names.size(); ++f) {
    if (f > 0) out.push_back(',');
    telemetry::json::append_string(out, rec.field_names[f]);
    out += ":[";
    const auto& vals = rec.fields[f];
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (i > 0) out.push_back(',');
      telemetry::json::append_double(out, vals[i]);
    }
    out += "]";
  }
  out += "}}\n";
}

}  // namespace

EpisodeCapture::EpisodeCapture(const char* task,
                               std::initializer_list<const char*> fields) {
  rec_.task = task;
  rec_.field_names.reserve(fields.size());
  for (const char* name : fields) rec_.field_names.emplace_back(name);
  rec_.fields.resize(rec_.field_names.size());
}

void EpisodeCapture::add(int action, double reward,
                         std::initializer_list<double> values) {
  rec_.total_reward += reward;
  ++rec_.steps;
  if (static_cast<std::size_t>(rec_.steps) > kMaxStepsCaptured) {
    rec_.truncated = true;
    return;
  }
  rec_.actions.push_back(action);
  rec_.rewards.push_back(reward);
  std::size_t f = 0;
  for (double v : values) {
    if (f < rec_.fields.size()) rec_.fields[f].push_back(v);
    ++f;
  }
}

EpisodeRecord EpisodeCapture::finish() {
  rec_.mean_reward =
      rec_.steps > 0 ? rec_.total_reward / static_cast<double>(rec_.steps)
                     : 0.0;
  return std::move(rec_);
}

Recorder& Recorder::instance() {
  // Immortal for the same reason as the trace registry: a dump during static
  // destruction and late env teardown must never observe a dead recorder.
  static Recorder* recorder = new Recorder;
  return *recorder;
}

void Recorder::enable(int worst_k) {
  std::lock_guard<std::mutex> lock(mu_);
  worst_k_ = std::max(worst_k, 1);
  enabled_.store(true, std::memory_order_relaxed);
}

void Recorder::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void Recorder::submit(EpisodeRecord rec) {
  if (!enabled()) return;
  seen_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  const auto pos =
      std::upper_bound(worst_.begin(), worst_.end(), rec, worse_than);
  if (worst_.size() >= static_cast<std::size_t>(worst_k_) &&
      pos == worst_.end()) {
    return;  // not worse than anything retained
  }
  worst_.insert(pos, std::move(rec));
  if (worst_.size() > static_cast<std::size_t>(worst_k_)) worst_.pop_back();
}

std::vector<EpisodeRecord> Recorder::worst() const {
  std::lock_guard<std::mutex> lock(mu_);
  return worst_;
}

void Recorder::write_jsonl(const std::string& path) const {
  std::string out;
  for (const EpisodeRecord& rec : worst()) append_jsonl_line(out, rec);
  write_file_bytes(path, out);
}

void Recorder::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  worst_.clear();
  seen_.store(0, std::memory_order_relaxed);
}

std::unique_ptr<EpisodeCapture> begin_episode(
    const char* task, std::initializer_list<const char*> fields) {
  if (!Recorder::instance().enabled()) return nullptr;
  return std::make_unique<EpisodeCapture>(task, fields);
}

void submit(std::unique_ptr<EpisodeCapture> capture) {
  if (capture == nullptr) return;
  Recorder::instance().submit(capture->finish());
}

}  // namespace netgym::flight
