#include "genet/zoo.hpp"

#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "genet/curriculum.hpp"
#include "netgym/checkpoint.hpp"

namespace genet {

namespace {

namespace ckpt = netgym::checkpoint;

constexpr const char* kValuesKey = "values";

std::string default_directory() {
  if (const char* dir = std::getenv("GENET_MODEL_DIR")) return dir;
  return "genet_models";
}

std::string sanitize(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

ModelZoo::ModelZoo() : directory_(default_directory()) {}

ModelZoo::ModelZoo(std::string directory) : directory_(std::move(directory)) {}

std::string ModelZoo::path_for(const std::string& key) const {
  return directory_ + "/" + sanitize(key) + ".model";
}

bool ModelZoo::contains(const std::string& key) const {
  return std::filesystem::exists(path_for(key));
}

void ModelZoo::put(const std::string& key, const std::vector<double>& params) {
  std::filesystem::create_directories(directory_);
  ckpt::Snapshot snap;
  snap.put_doubles(kValuesKey, params);
  ckpt::write_file(snap, path_for(key));
}

std::vector<double> ModelZoo::get(const std::string& key) const {
  const std::string path = path_for(key);
  const ckpt::Snapshot snap = ckpt::read_file(path);
  if (!snap.has(kValuesKey)) {
    throw ckpt::CheckpointError("checkpoint: '" + path +
                                "' is not a model zoo entry");
  }
  return snap.get_doubles(kValuesKey);
}

std::vector<double> ModelZoo::get_or_train(
    const std::string& key,
    const std::function<std::vector<double>()>& train) {
  if (contains(key)) return get(key);
  std::vector<double> params = train();
  put(key, params);
  return params;
}

std::vector<std::vector<double>> ModelZoo::get_or_train_batch(
    const std::vector<TrainSpec>& specs) {
  std::vector<std::vector<double>> results(specs.size());
  std::vector<std::size_t> misses;
  std::vector<TrainModelRequest> requests;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (contains(specs[i].key)) {
      results[i] = get(specs[i].key);
    } else {
      misses.push_back(i);
      requests.push_back(TrainModelRequest{specs[i].adapter_spec,
                                           specs[i].iterations,
                                           specs[i].seed});
    }
  }
  if (misses.empty()) return results;
  std::vector<std::vector<double>> trained;
  if (train_model_hook_installed()) {
    trained = run_train_model_hook(requests);
    if (trained.size() != requests.size()) {
      throw std::runtime_error("ModelZoo: train hook returned " +
                               std::to_string(trained.size()) +
                               " results for " +
                               std::to_string(requests.size()) + " requests");
    }
  } else {
    trained.reserve(requests.size());
    for (const TrainModelRequest& request : requests) {
      trained.push_back(train_model_for_request(request));
    }
  }
  for (std::size_t j = 0; j < misses.size(); ++j) {
    put(specs[misses[j]].key, trained[j]);
    results[misses[j]] = std::move(trained[j]);
  }
  return results;
}

}  // namespace genet
