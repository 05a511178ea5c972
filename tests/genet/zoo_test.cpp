#include "genet/zoo.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>

#include "netgym/checkpoint.hpp"

namespace {

using genet::ModelZoo;

class ZooTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("genet_zoo_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(ZooTest, PutGetRoundTripsExactly) {
  ModelZoo zoo(dir_.string());
  const std::vector<double> params{1.0, -2.5, 3.14159265358979,
                                   1e-17, 123456.789};
  zoo.put("abr-genet-seed1", params);
  EXPECT_TRUE(zoo.contains("abr-genet-seed1"));
  EXPECT_EQ(zoo.get("abr-genet-seed1"), params);
}

TEST_F(ZooTest, GetMissingKeyThrows) {
  ModelZoo zoo(dir_.string());
  EXPECT_FALSE(zoo.contains("nope"));
  EXPECT_THROW(zoo.get("nope"), std::runtime_error);
}

TEST_F(ZooTest, GetOrTrainInvokesTrainerOnlyOnce) {
  ModelZoo zoo(dir_.string());
  int calls = 0;
  auto trainer = [&]() {
    ++calls;
    return std::vector<double>{1.0, 2.0};
  };
  const auto first = zoo.get_or_train("key", trainer);
  const auto second = zoo.get_or_train("key", trainer);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(first, second);
}

TEST_F(ZooTest, KeysAreSanitizedForTheFilesystem) {
  ModelZoo zoo(dir_.string());
  zoo.put("weird key/with:chars", {1.0});
  EXPECT_TRUE(zoo.contains("weird key/with:chars"));
  EXPECT_EQ(zoo.get("weird key/with:chars"), std::vector<double>{1.0});
}

TEST_F(ZooTest, EmptyParameterVectorRoundTrips) {
  ModelZoo zoo(dir_.string());
  zoo.put("empty", {});
  EXPECT_TRUE(zoo.get("empty").empty());
}

TEST_F(ZooTest, SpecialDoublesRoundTripBitForBit) {
  ModelZoo zoo(dir_.string());
  const std::vector<double> params{
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::bit_cast<double>(std::uint64_t{0x7ff8'0000'0000'1234})};
  zoo.put("special", params);
  const std::vector<double> back = zoo.get("special");
  ASSERT_EQ(back.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(params[i]))
        << "value " << i;
  }
}

// A cut entry (a run killed between open and first write) and an entry in
// any other format must fail loudly, naming the file -- never load as data.
TEST_F(ZooTest, DamagedEntriesThrowNamingThePath) {
  ModelZoo zoo(dir_.string());
  std::filesystem::create_directories(dir_);
  const std::pair<const char*, const char*> entries[] = {
      {"empty", ""}, {"text", "3\n1\n2\n3\n"}};
  for (const auto& [key, contents] : entries) {
    const std::string path = (dir_ / (std::string(key) + ".model")).string();
    std::ofstream(path) << contents;
    ASSERT_TRUE(zoo.contains(key));
    try {
      zoo.get(key);
      ADD_FAILURE() << key << " entry loaded";
    } catch (const netgym::checkpoint::CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
}

// put goes through the checkpoint writer: a CRC-checked file, renamed into
// place, with no `.tmp` left beside it.
TEST_F(ZooTest, PutWritesACheckpointAndLeavesNoTempFile) {
  ModelZoo zoo(dir_.string());
  zoo.put("a", {1.0, 2.0});
  zoo.put("a", {3.0});
  EXPECT_EQ(netgym::checkpoint::read_file((dir_ / "a.model").string())
                .get_doubles("values"),
            std::vector<double>{3.0});
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".model") << entry.path();
  }
}

TEST_F(ZooTest, EnvironmentVariableOverridesDirectory) {
  ::setenv("GENET_MODEL_DIR", dir_.string().c_str(), 1);
  ModelZoo zoo;  // default constructor reads the env var
  EXPECT_EQ(zoo.directory(), dir_.string());
  zoo.put("env-key", {4.2});
  EXPECT_TRUE(std::filesystem::exists(dir_ / "env-key.model"));
  ::unsetenv("GENET_MODEL_DIR");
}

}  // namespace
