#include "netgym/flags.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "netgym/parse.hpp"

namespace netgym::flags {

namespace {

bool is_choice(std::string_view choices, std::string_view value) {
  for (std::size_t bar = 0; (bar = choices.find('|')) != choices.npos;
       choices.remove_prefix(bar + 1)) {
    if (choices.substr(0, bar) == value) return true;
  }
  return choices == value;
}

/// `value` as the accessors read it back; throws Error naming `what` (the
/// flag or variable) unless it is a valid value of `flag`.
std::string checked(const Flag& flag, const std::string& what,
                    const std::string& value) {
  try {
    if (flag.kind == Kind::kInteger) {
      parse_i64_in_range(what.c_str(), value, flag.min, flag.max);
    } else if (flag.kind == Kind::kReal) {
      parse_f64_in_range(what.c_str(), value, static_cast<double>(flag.min),
                         static_cast<double>(flag.max));
    } else if (flag.kind == Kind::kSwitch) {  // only a variable's value
      return parse_i64_in_range(what.c_str(), value, 0, 1) == 1 ? "1" : "";
    }
  } catch (const std::invalid_argument& e) {
    throw Error(e.what());
  }
  if (flag.kind == Kind::kChoice && !is_choice(flag.choices, value)) {
    throw Error(what + ": expected one of " + std::string(flag.choices) +
                ", got '" + value + "'");
  }
  return value;
}

}  // namespace

const std::string& Args::text(std::string_view name) const {
  const std::optional<std::string>& value = values_.at(std::string(name));
  if (!value) throw Error("--" + std::string(name) + " is required");
  return *value;
}

const Flag* Args::lookup(std::string_view name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

Args::Args(std::initializer_list<std::span<const Flag>> table,
           const std::vector<std::string>& tokens) {
  for (const std::span<const Flag> part : table) {
    for (const Flag& flag : part) {
      if (flag.name == "help" || lookup(flag.name) != nullptr) {
        throw std::logic_error("flag --" + std::string(flag.name) +
                               " declared twice");
      }
      flags_.push_back(flag);
    }
  }
  help_ = std::count(tokens.begin(), tokens.end(), "--help") != 0;
  if (help_) return;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("--", 0) != 0) {
      throw Error("unexpected argument '" + token + "'");
    }
    const std::string name = token.substr(2);
    const Flag* flag = lookup(name);
    if (flag == nullptr) throw Error("unknown flag " + token);
    if (given_.count(name) != 0U) throw Error(token + " given twice");
    if (flag->kind == Kind::kSwitch) {
      given_.emplace(name, "1");
    } else if (i + 1 == tokens.size() || tokens[i + 1].rfind("--", 0) == 0) {
      throw Error(token + ": missing value");
    } else {
      given_.emplace(name, checked(*flag, token, tokens[++i]));
    }
  }
  for (const Flag& flag : flags_) {
    const std::string name(flag.name);
    const char* env = flag.env != nullptr ? std::getenv(flag.env) : nullptr;
    std::optional<std::string> value;
    if (const auto it = given_.find(name); it != given_.end()) {
      value = it->second;
    } else if (env != nullptr && env[0] != '\0') {
      value = checked(flag, flag.env, env);
    } else if (flag.fallback != nullptr) {
      value = checked(flag, "default of --" + name, flag.fallback);
    } else if (flag.kind == Kind::kSwitch) {
      value = "";
    }
    values_.emplace(name, std::move(value));
  }
}

std::string Args::usage() const {
  static constexpr const char* kValue[] = {" TEXT", " N", " X", "", " "};
  std::string out;
  for (const Flag& flag : flags_) {
    std::string line = "  --" + std::string(flag.name) +
                       kValue[static_cast<int>(flag.kind)] +
                       std::string(flag.choices);
    line.resize(std::max<std::size_t>(line.size() + 1, 28), ' ');
    line += flag.help;
    if (flag.kind == Kind::kInteger || flag.kind == Kind::kReal) {
      line += "; range " + std::to_string(flag.min) + ".." +
              (flag.max >= kIntMax ? "" : std::to_string(flag.max));
    }
    if (flag.fallback != nullptr && flag.fallback[0] != '\0') {
      line += std::string("; default ") + flag.fallback;
    }
    if (flag.env != nullptr) line += std::string("; env ") + flag.env;
    out += line + "\n";
  }
  return out;
}

void fail(const std::string& program, const std::string& message) {
  std::fprintf(stderr, "error: %s\nusage: %s [flags]; --help lists them\n",
               message.c_str(), program.c_str());
  std::exit(2);
}

Args parse_or_exit(std::initializer_list<std::span<const Flag>> table,
                   const std::string& program, int argc, char** argv,
                   int first) {
  try {
    Args args(table, {argv + first, argv + argc});
    if (!args.help()) return args;
    std::printf("usage: %s [flags]\n\n%s", program.c_str(),
                args.usage().c_str());
    std::exit(0);
  } catch (const Error& e) {
    fail(program, e.what());
  }
}

}  // namespace netgym::flags
