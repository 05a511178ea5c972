#pragma once

#include <string>

#include "fleet/fleet.hpp"

namespace fleet {

/// Write the "bench": "fleet" JSON document (schema_version 1) rendered by
/// scripts/slo_report.py. Throws std::runtime_error when the file cannot be
/// written.
void write_fleet_json(const std::string& path, const FleetResult& result);

/// Human-readable per-scenario summary (percentile rows + SLO pass/fail),
/// printed by `genet fleet`.
std::string format_fleet_summary(const FleetResult& result);

}  // namespace fleet
