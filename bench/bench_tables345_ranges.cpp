// Tables 3, 4, 5: the environment-parameter ranges of the RL1/RL2/RL3
// training distributions for ABR, CC, and LB. Prints every dimension with
// its range per space and its sampling scale (S4.2: "uniform or exponential
// along each parameter" -- log-scale dimensions are the exponential ones).

#include <cstdio>

#include "abr/env.hpp"
#include "cc/env.hpp"
#include "exp_common.hpp"
#include "lb/env.hpp"

namespace {

void print_space(const std::string& task) {
  std::printf("\n%s parameter ranges\n", task.c_str());
  std::printf("%-24s %-22s %-22s %-22s %s\n", "parameter", "RL1", "RL2",
              "RL3", "scale");
  const auto s1 = genet::make_adapter(task, 1)->space();
  const auto s2 = genet::make_adapter(task, 2)->space();
  const auto s3 = genet::make_adapter(task, 3)->space();
  for (std::size_t d = 0; d < s3.dims(); ++d) {
    char r1[64], r2[64], r3[64];
    std::snprintf(r1, sizeof(r1), "[%g, %g]", s1.param(d).lo, s1.param(d).hi);
    std::snprintf(r2, sizeof(r2), "[%g, %g]", s2.param(d).lo, s2.param(d).hi);
    std::snprintf(r3, sizeof(r3), "[%g, %g]", s3.param(d).lo, s3.param(d).hi);
    std::printf("%-24s %-22s %-22s %-22s %s\n", s3.param(d).name.c_str(), r1,
                r2, r3, s3.param(d).log_scale ? "log" : "linear");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
                      "Tables 3-5 - RL1/RL2/RL3 environment ranges",
                      "nested parameter ranges per use case; RL1 narrow, "
                      "RL3 the full target space");
  print_space("abr");
  print_space("cc");
  print_space("lb");
  return bench::finish();
}
