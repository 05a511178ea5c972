#include "fleet/report.hpp"

#include <cinttypes>
#include <cstdio>

#include "netgym/checkpoint.hpp"
#include "netgym/telemetry.hpp"

namespace fleet {

namespace {

/// JSON string literal via the shared telemetry escaper.
std::string js(const std::string& s) {
  std::string out;
  netgym::telemetry::json::append_string(out, s);
  return out;
}

/// JSON number: %.17g keeps metric stats bit-faithful (same formatting as
/// the telemetry JSONL sinks); non-finite becomes null.
std::string jd(double v) {
  std::string out;
  netgym::telemetry::json::append_double(out, v);
  return out;
}

std::string ji(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

const char* jb(bool v) { return v ? "true" : "false"; }

void append_metric(std::string& out, const MetricSummary& m) {
  const auto& s = m.stats;
  out += "{\"name\":" + js(m.name);
  out += ",\"count\":" + ji(s.count);
  out += ",\"mean\":" +
         jd(s.count > 0 ? s.sum / static_cast<double>(s.count) : 0.0);
  out += ",\"min\":" + jd(s.min);
  out += ",\"max\":" + jd(s.max);
  out += ",\"p50\":" + jd(s.p50);
  out += ",\"p90\":" + jd(s.p90);
  out += ",\"p99\":" + jd(s.p99);
  out += ",\"p999\":" + jd(s.p999);
  out += ",\"exact\":";
  out += jb(s.exact);
  out += ",\"dropped\":" + ji(s.dropped);
  out += ",\"saturated\":" + ji(s.saturated);
  out += "}";
}

void append_slo(std::string& out, const SloResult& s) {
  out += "{\"metric\":" + js(s.spec.metric);
  out += ",\"op\":" + js(slo_op_name(s.spec.op));
  out += ",\"threshold\":" + jd(s.spec.threshold);
  out += ",\"target_fraction\":" + jd(s.spec.target_fraction);
  out += ",\"compliant\":" + ji(s.compliant);
  out += ",\"fraction\":" + jd(s.fraction);
  out += ",\"pass\":";
  out += jb(s.pass);
  out += "}";
}

}  // namespace

void write_fleet_json(const std::string& path, const FleetResult& r) {
  std::string out;
  out.reserve(4096);
  out += "{\n";
  out += "  \"bench\": \"fleet\",\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"seed\": " + ji(static_cast<std::int64_t>(r.seed)) + ",\n";
  out += "  \"threads\": " + ji(r.threads) + ",\n";
  out += "  \"shards\": " + ji(r.shards) + ",\n";
  out += "  \"worst_k\": " + ji(r.worst_k) + ",\n";
  out += "  \"sessions_total\": " + ji(r.sessions) + ",\n";
  out += "  \"steps_total\": " + ji(r.steps) + ",\n";
  out += "  \"duration_s\": " + jd(r.duration_s) + ",\n";
  const double dur = r.duration_s > 0.0 ? r.duration_s : 1e-9;
  out += "  \"sessions_per_s\": " +
         jd(static_cast<double>(r.sessions) / dur) + ",\n";
  out += "  \"steps_per_s\": " + jd(static_cast<double>(r.steps) / dur) +
         ",\n";
  out += "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < r.scenarios.size(); ++i) {
    const ScenarioResult& sc = r.scenarios[i];
    out += "    {\"name\":" + js(sc.name);
    out += ",\"task\":" + js(sc.task);
    out += ",\"space\":" + ji(sc.space_id);
    out += ",\"sessions\":" + ji(sc.sessions);
    out += ",\"steps\":" + ji(sc.steps);
    out += ",\"duration_s\":" + jd(sc.duration_s);
    const double sdur = sc.duration_s > 0.0 ? sc.duration_s : 1e-9;
    out += ",\"sessions_per_s\":" +
           jd(static_cast<double>(sc.sessions) / sdur);
    out += ",\"trace_set\":" + js(sc.trace_set);
    out += ",\"trace_prob\":" + jd(sc.trace_prob);
    out += ",\"flight_path\":" + js(sc.flight_path);
    out += ",\"flight_episodes\":" + ji(sc.flight_episodes);
    out += ",\n     \"metrics\":[";
    for (std::size_t m = 0; m < sc.metrics.size(); ++m) {
      if (m > 0) out += ",";
      append_metric(out, sc.metrics[m]);
    }
    out += "],\n     \"slos\":[";
    for (std::size_t s = 0; s < sc.slos.size(); ++s) {
      if (s > 0) out += ",";
      append_slo(out, sc.slos[s]);
    }
    out += "]}";
    out += (i + 1 < r.scenarios.size()) ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  netgym::write_file_bytes(path, out);
}

std::string format_fleet_summary(const FleetResult& r) {
  std::string out;
  char line[256];
  const double dur = r.duration_s > 0.0 ? r.duration_s : 1e-9;
  std::snprintf(line, sizeof(line),
                "fleet: %" PRId64 " sessions, %" PRId64
                " steps in %.2fs (%.0f sessions/s, %d threads, %d shards)\n",
                r.sessions, r.steps, r.duration_s,
                static_cast<double>(r.sessions) / dur, r.threads, r.shards);
  out += line;
  for (const ScenarioResult& sc : r.scenarios) {
    std::snprintf(line, sizeof(line),
                  "\n[%s] task=%s space=RL%d sessions=%" PRId64 "%s%s\n",
                  sc.name.c_str(), sc.task.c_str(), sc.space_id, sc.sessions,
                  sc.trace_set.empty() ? "" : " traces=",
                  sc.trace_set.c_str());
    out += line;
    std::snprintf(line, sizeof(line), "  %-16s %10s %12s %12s %12s %12s %12s\n",
                  "metric", "count", "mean", "p50", "p99", "p99.9", "max");
    out += line;
    for (const MetricSummary& m : sc.metrics) {
      const auto& s = m.stats;
      std::snprintf(line, sizeof(line),
                    "  %-16s %10" PRId64 " %12.5g %12.5g %12.5g %12.5g "
                    "%12.5g\n",
                    m.name.c_str(), s.count,
                    s.count > 0 ? s.sum / static_cast<double>(s.count) : 0.0,
                    s.p50, s.p99, s.p999, s.max);
      out += line;
    }
    for (const SloResult& s : sc.slos) {
      std::snprintf(line, sizeof(line),
                    "  SLO %-14s %s %-10.4g target=%.3f measured=%.5f  %s\n",
                    s.spec.metric.c_str(), slo_op_name(s.spec.op),
                    s.spec.threshold, s.spec.target_fraction, s.fraction,
                    s.pass ? "PASS" : "FAIL");
      out += line;
    }
  }
  return out;
}

}  // namespace fleet
