#include "netgym/flags.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "flag_tables.hpp"
#include "netgym/obs.hpp"

namespace {

namespace flags = netgym::flags;

constexpr flags::Flag kDemo[] = {
    flags::integer("envs", 1, 100, "10", "environments"),
    flags::real("prob", 0, 1, "0.5", "a probability", "GENET_FLAGS_TEST_PROB"),
    flags::choice("mode", "strict|fast", nullptr, "math mode"),
    flags::text("out", nullptr, "output path"),
    flags::toggle("resume", "resume", "GENET_FLAGS_TEST_RESUME"),
};

/// Clears `names` for the guard's lifetime and restores them afterwards.
class EnvGuard {
 public:
  explicit EnvGuard(std::vector<std::string> names) : names_(std::move(names)) {
    for (const std::string& name : names_) {
      const char* value = std::getenv(name.c_str());
      saved_.push_back(value != nullptr ? std::optional<std::string>(value)
                                        : std::nullopt);
      ::unsetenv(name.c_str());
    }
  }
  ~EnvGuard() {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (saved_[i]) {
        ::setenv(names_[i].c_str(), saved_[i]->c_str(), 1);
      } else {
        ::unsetenv(names_[i].c_str());
      }
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::vector<std::string> names_;
  std::vector<std::optional<std::string>> saved_;
};

using Table = std::span<const flags::Flag>;

flags::Args parsed(Table table, const std::vector<std::string>& tokens) {
  return flags::Args({table}, tokens);
}

/// The flags::Error message `tokens` produce, "" when they parse.
std::string error_of(Table table, const std::vector<std::string>& tokens) {
  try {
    parsed(table, tokens);
  } catch (const flags::Error& e) {
    return e.what();
  }
  return "";
}

TEST(FlagTable, RejectsEachBadTokenNamingIt) {
  EnvGuard env({"GENET_FLAGS_TEST_PROB", "GENET_FLAGS_TEST_RESUME"});
  const Table table = kDemo;
  EXPECT_EQ(error_of(table, {"--envs", "3", "extra"}),
            "unexpected argument 'extra'");
  EXPECT_EQ(error_of(table, {"--itres", "2"}), "unknown flag --itres");
  EXPECT_EQ(error_of(table, {"--"}), "unknown flag --");
  EXPECT_EQ(error_of(table, {"--envs", "2", "--envs", "3"}),
            "--envs given twice");
  EXPECT_EQ(error_of(table, {"--resume", "--resume"}), "--resume given twice");
  EXPECT_EQ(error_of(table, {"--envs"}), "--envs: missing value");
  EXPECT_EQ(error_of(table, {"--envs", "--resume"}), "--envs: missing value");
  EXPECT_EQ(error_of(table, {"--envs", "lots"}),
            "--envs: expected an integer, got 'lots'");
  EXPECT_EQ(error_of(table, {"--envs", "0"}),
            "--envs: value 0 out of range [1, 100]");
  EXPECT_EQ(error_of(table, {"--prob", "1x"}),
            "--prob: expected a number, got '1x'");
  EXPECT_NE(error_of(table, {"--prob", "1.5"}).find("--prob: value 1.5"),
            std::string::npos);
  EXPECT_EQ(error_of(table, {"--mode", "turbo"}),
            "--mode: expected one of strict|fast, got 'turbo'");
  // Negative numbers are values, not flags.
  EXPECT_EQ(error_of(table, {"--envs", "-3"}),
            "--envs: value -3 out of range [1, 100]");
}

TEST(FlagTable, ResolvesFlagThenEnvThenDefault) {
  EnvGuard env({"GENET_FLAGS_TEST_PROB", "GENET_FLAGS_TEST_RESUME"});
  const Table table = kDemo;
  flags::Args args = parsed(table, {});
  EXPECT_EQ(args.integer("envs"), 10);
  EXPECT_DOUBLE_EQ(args.real("prob"), 0.5);
  EXPECT_FALSE(args.on("resume"));
  EXPECT_FALSE(args.has("mode"));
  EXPECT_TRUE(args.given().empty());
  try {
    args.text("out");
    ADD_FAILURE() << "an unset entry without a default must be required";
  } catch (const flags::Error& e) {
    EXPECT_STREQ(e.what(), "--out is required");
  }

  ::setenv("GENET_FLAGS_TEST_PROB", "0.25", 1);
  ::setenv("GENET_FLAGS_TEST_RESUME", "1", 1);
  args = parsed(table, {"--mode", "fast"});
  EXPECT_DOUBLE_EQ(args.real("prob"), 0.25);
  EXPECT_TRUE(args.on("resume"));
  EXPECT_EQ(args.text("mode"), "fast");

  // The flag beats the variable; given() keeps the tokens as typed.
  args = parsed(table, {"--prob", "+0.75", "--resume"});
  EXPECT_DOUBLE_EQ(args.real("prob"), 0.75);
  EXPECT_EQ(args.given(), (std::map<std::string, std::string>{
                              {"prob", "+0.75"}, {"resume", "1"}}));

  // An empty variable is unset; a bad one fails naming the variable.
  ::setenv("GENET_FLAGS_TEST_PROB", "", 1);
  EXPECT_DOUBLE_EQ(parsed(table, {}).real("prob"), 0.5);
  ::setenv("GENET_FLAGS_TEST_PROB", "half", 1);
  EXPECT_EQ(error_of(table, {}),
            "GENET_FLAGS_TEST_PROB: expected a number, got 'half'");
  EXPECT_DOUBLE_EQ(parsed(table, {"--prob", "1"}).real("prob"), 1.0);
  ::setenv("GENET_FLAGS_TEST_RESUME", "yes", 1);
  EXPECT_NE(error_of(table, {"--prob", "1"}).find("GENET_FLAGS_TEST_RESUME"),
            std::string::npos);
}

TEST(FlagTable, HelpIsGeneratedFromTheTable) {
  const flags::Args args = parsed(kDemo, {"--envs", "lots", "--help", "x"});
  EXPECT_TRUE(args.help());
  const std::string help = args.usage();
  for (const char* text :
       {"--envs N", "range 1..100; default 10", "--prob X",
        "env GENET_FLAGS_TEST_PROB", "--mode strict|fast", "--out TEXT",
        "--resume", "math mode"}) {
    EXPECT_NE(help.find(text), std::string::npos) << text;
  }
}

TEST(FlagTable, MisuseIsAProgramBug) {
  EXPECT_THROW(flags::Args({kDemo, kDemo}, {}), std::logic_error);
  const flags::Args args = parsed(kDemo, {});
  EXPECT_THROW(args.integer("nope"), std::logic_error);
}

/// Every front end's entries, composed as its main composes its table.
std::vector<std::pair<std::string, std::vector<flags::Flag>>> front_ends() {
  namespace t = flags::tables;
  using Part = std::span<const flags::Flag>;
  const auto join = [](std::initializer_list<Part> parts) {
    std::vector<flags::Flag> all;
    for (const Part part : parts) {
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  };
  std::vector<std::pair<std::string, std::vector<flags::Flag>>> out;
  for (const auto& [name, command] :
       {std::pair<const char*, Part>{"train", t::kTrain}, {"eval", t::kEval},
        {"search", t::kSearch}, {"trace", t::kTrace}, {"fleet", t::kFleet}}) {
    out.emplace_back(std::string("genet ") + name,
                     join({command, t::kCliShared, netgym::obs::kFlags}));
  }
  out.emplace_back("genet dist-worker", join({t::kDistWorker}));
  out.emplace_back("genet_serve", join({t::kServe, netgym::obs::kFlags}));
  out.emplace_back("bench_serve_load", join({t::kServeLoad}));
  out.emplace_back("bench", join({t::kBench, netgym::obs::kFlags}));
  return out;
}

/// A command line that sets every entry to a valid value.
std::vector<std::string> valid_argv(const std::vector<flags::Flag>& all) {
  std::vector<std::string> argv;
  for (const flags::Flag& flag : all) {
    argv.push_back("--" + std::string(flag.name));
    switch (flag.kind) {
      case flags::Kind::kSwitch: break;
      case flags::Kind::kInteger:
      case flags::Kind::kReal: argv.push_back(std::to_string(flag.max)); break;
      case flags::Kind::kChoice:
        argv.emplace_back(flag.choices.substr(flag.choices.rfind('|') + 1));
        break;
      case flags::Kind::kText: argv.emplace_back("value.out"); break;
    }
  }
  return argv;
}

/// Reads every entry back with its own accessor, and the obs::Options when
/// the table has them. Only a required entry that is unset may throw.
void read_back(const flags::Args& args, const std::vector<flags::Flag>& all) {
  if (args.help()) return;
  try {
    for (const flags::Flag& flag : all) {
      switch (flag.kind) {
        case flags::Kind::kSwitch: args.on(flag.name); break;
        case flags::Kind::kInteger: args.integer(flag.name); break;
        case flags::Kind::kReal: args.real(flag.name); break;
        case flags::Kind::kChoice:
        case flags::Kind::kText: args.text(flag.name); break;
      }
    }
  } catch (const flags::Error& e) {
    EXPECT_NE(std::string(e.what()).find(" is required"), std::string::npos)
        << e.what();
  }
  const bool has_obs = std::any_of(all.begin(), all.end(), [](const auto& f) {
    return f.name == netgym::obs::kFlags[0].name;
  });
  if (has_obs) netgym::obs::parse(args);
}

// The tokenizer's property on every front end's table: a mutated command
// line either parses or throws flags::Error -- never another exception,
// never a crash.
TEST(FlagTableFuzz, MutatedArgvParsesOrThrowsTheTypedError) {
  std::vector<std::string> env_vars;
  for (const auto& [name, all] : front_ends()) {
    for (const flags::Flag& flag : all) {
      if (flag.env != nullptr) env_vars.emplace_back(flag.env);
    }
  }
  EnvGuard env(env_vars);
  constexpr int kIterations = 3000;
  std::mt19937_64 rng(20261018);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (const auto& [name, all] : front_ends()) {
    const std::vector<std::string> valid = valid_argv(all);
    read_back(parsed(all, valid), all);
    int rejected = 0;
    for (int i = 0; i < kIterations; ++i) {
      std::vector<std::string> argv = valid;
      const std::size_t mutations = 1 + pick(3);
      for (std::size_t m = 0; m < mutations && !argv.empty(); ++m) {
        const std::size_t at = pick(argv.size());
        const auto pos = [&](std::size_t k) {
          return argv.begin() + static_cast<std::ptrdiff_t>(k);
        };
        switch (pick(6)) {
          case 0:  // drop
            argv.erase(pos(at));
            break;
          case 1: {  // duplicate
            const std::string token = argv[at];
            argv.insert(pos(pick(argv.size() + 1)), token);
            break;
          }
          case 2:  // swap
            std::swap(argv[at], argv[pick(argv.size())]);
            break;
          case 3:  // truncate
            argv[at].resize(pick(argv[at].size() + 1));
            break;
          case 4: {  // splice two tokens, flag names included
            const std::string other = argv[pick(argv.size())];
            argv[at] = argv[at].substr(0, pick(argv[at].size() + 1)) +
                       other.substr(pick(other.size() + 1));
            break;
          }
          default:  // a lone "--"
            argv.insert(pos(at), "--");
            break;
        }
      }
      try {
        read_back(parsed(all, argv), all);
      } catch (const flags::Error&) {
        ++rejected;
      }
    }
    EXPECT_GT(rejected, kIterations / 2) << name;
  }
}

}  // namespace
