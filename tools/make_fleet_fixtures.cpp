// Regenerates the committed fleet regression fixtures:
//
//   make_fleet_fixtures <tests/data dir>
//
// writes worst_fixture_abr.jsonl -- the worst-4 flight recordings of the
// deterministic 96-session ABR fixture fleet -- and fleet_digest_<task>.txt,
// the canonical digest of each task's small default mix
// (fleet::write_regression_fixture). fleet_test re-runs the same fleets
// in-process and byte-compares against the committed files, so the fixtures
// pin the whole sampling -> trace replay -> lockstep replay -> flight capture
// pipeline of every task. Only rerun this on a *deliberate* change to fleet
// sampling, the environments' dynamics, or the flight JSONL format, and
// review the diff of the regenerated files like any other behavior change.

#include <cstdio>

#include "fleet/fleet.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_fleet_fixtures <output-dir>\n");
    return 2;
  }
  for (const std::string& path : fleet::write_regression_fixture(argv[1])) {
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
