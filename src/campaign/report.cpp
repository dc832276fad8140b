#include "campaign/report.hpp"

#include <cstdio>

#include "obs/profiler.hpp"

namespace chs::campaign {

namespace {

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

// Fixed four-decimal conversion: the only double-typed report fields are
// means/percentiles of small integer-valued samples and degree expansions,
// where four decimals are exact enough and the output stays byte-stable.
std::string fmt_f(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

// JSON string escaping: scenario names come straight from user files (any
// whitespace-free token is a legal name), so quotes, backslashes, and
// control characters must not corrupt the document.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_stats_json(std::string& out, const std::string& key,
                       const core::Stats& s) {
  out += '"';
  out += key;
  out += "\": {\"mean\": " + fmt_f(s.mean) + ", \"min\": " + fmt_f(s.min) +
         ", \"max\": " + fmt_f(s.max) + ", \"p50\": " + fmt_f(s.p50) +
         ", \"p90\": " + fmt_f(s.p90) + ", \"p99\": " + fmt_f(s.p99) + "}";
}

void add_stats_row(core::Table& t, const std::string& name,
                   const core::Stats& s) {
  t.add_row({name, fmt_f(s.mean), fmt_f(s.min), fmt_f(s.max), fmt_f(s.p50),
             fmt_f(s.p90), fmt_f(s.p99)});
}

// Whether a column of `plane` is in a job's report: workload columns appear
// only when a workload is armed, so other reports keep their exact bytes.
bool shown(obs::Plane plane, bool workload) {
  return plane == obs::Plane::kControl || workload;
}

// One sample's cells in report order: the closing round, the recorded
// columns of obs::kSeriesColumns, then the derived ones. Both series
// writers print exactly these.
std::vector<std::pair<const char*, std::string>> series_cells(
    const obs::SeriesSample& s, bool workload) {
  std::vector<std::pair<const char*, std::string>> cells = {
      {"round", fmt_u64(s.round)}};
  for (const obs::SeriesColumn& c : obs::kSeriesColumns) {
    if (shown(c.plane, workload)) {
      cells.emplace_back(c.key, fmt_u64(s.*c.field));
    }
  }
  for (const obs::DerivedColumn& c : obs::kDerivedColumns) {
    if (!shown(c.plane, workload)) continue;
    const double v = c.of(s);
    cells.emplace_back(
        c.key, c.fraction ? fmt_f(v) : fmt_u64(static_cast<std::uint64_t>(v)));
  }
  return cells;
}

}  // namespace

CampaignReport make_report(const Scenario& sc,
                           std::vector<JobResult> results) {
  CampaignReport rep;
  rep.scenario = sc.name;
  rep.jobs = results.size();
  const auto add = [&](const char* key, auto value_of) {
    std::vector<double> xs;
    for (const JobResult& r : results) {
      xs.push_back(static_cast<double>(value_of(r)));
    }
    rep.aggregate.emplace_back(key, core::stats_of(xs));
  };
  add("rounds", [](const JobResult& r) { return r.rounds; });
  add("messages", [](const JobResult& r) { return r.messages; });
  add("messages_dropped",
      [](const JobResult& r) { return r.messages_dropped; });
  add("resets", [](const JobResult& r) { return r.resets; });
  add("peak_degree", [](const JobResult& r) { return r.peak_degree; });
  add("degree_expansion",
      [](const JobResult& r) { return r.degree_expansion; });
  std::vector<double> recov;
  for (const JobResult& r : results) {
    if (r.converged) ++rep.converged_jobs;
    for (const EventOutcome& e : r.events) {
      ++rep.events_total;
      if (e.recovered) {
        ++rep.events_recovered;
        recov.push_back(static_cast<double>(e.recovery_rounds));
      }
    }
  }
  rep.aggregate.emplace_back("recovery_rounds", core::stats_of(recov));
  rep.results = std::move(results);
  return rep;
}

std::string CampaignReport::to_json() const {
  std::string out;
  out += "{\n";
  out += "  \"scenario\": \"" + json_escape(scenario) + "\",\n";
  out += "  \"jobs\": " + fmt_u64(jobs) + ",\n";
  out += "  \"converged_jobs\": " + fmt_u64(converged_jobs) + ",\n";
  out += "  \"events\": {\"total\": " + fmt_u64(events_total) +
         ", \"recovered\": " + fmt_u64(events_recovered) + "},\n";
  out += "  \"aggregate\": {\n";
  for (std::size_t i = 0; i < aggregate.size(); ++i) {
    out += "    ";
    append_stats_json(out, aggregate[i].first, aggregate[i].second);
    out += i + 1 < aggregate.size() ? ",\n" : "\n";
  }
  out += "  },\n";
  out += "  \"per_job\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResult& r = results[i];
    out += "    {\"job\": " + fmt_u64(r.spec.index) + ", \"family\": \"" +
           graph::family_name(r.spec.family) + "\", \"hosts\": " +
           fmt_u64(r.spec.n_hosts) + ", \"seed\": " + fmt_u64(r.spec.seed) +
           ",\n";
    out += "     \"setup_converged\": ";
    out += r.setup_converged ? "true" : "false";
    out += ", \"setup_rounds\": " + fmt_u64(r.setup_rounds) +
           ", \"converged\": ";
    out += r.converged ? "true" : "false";
    out += ", \"rounds\": " + fmt_u64(r.rounds) + ",\n";
    out += "     \"messages\": " + fmt_u64(r.messages) +
           ", \"messages_dropped\": " + fmt_u64(r.messages_dropped) +
           ", \"resets\": " + fmt_u64(r.resets) + ", \"edge_adds\": " +
           fmt_u64(r.edge_adds) + ", \"edge_dels\": " + fmt_u64(r.edge_dels) +
           ",\n";
    out += "     \"peak_degree\": " + fmt_u64(r.peak_degree) +
           ", \"degree_expansion\": " + fmt_f(r.degree_expansion);
    if (r.oracle_armed) {
      // Emitted only for oracle-armed jobs, so oracle-free reports (and
      // the CI golden) keep their exact bytes.
      out += ", \"oracle\": {\"violation\": \"" +
             json_escape(r.oracle_violation) + "\", \"round\": " +
             fmt_u64(r.oracle_round) + ", \"rounds_checked\": " +
             fmt_u64(r.oracle_rounds_checked) + "}";
    }
    if (r.series_armed) {
      // Emitted only when the scenario arms `series`, so series-free
      // reports keep their exact pre-D12 bytes. Samples are deterministic
      // counter deltas — part of the golden-diffed document.
      out += ",\n     \"series\": {\"stride\": " + fmt_u64(r.series_stride) +
             ", \"samples\": [";
      for (std::size_t j = 0; j < r.series.size(); ++j) {
        if (j) out += ", ";
        // Workload columns are the per-window serving view (DESIGN.md D13):
        // how the data plane behaved *during* this window.
        const char* sep = "{";
        for (const auto& [key, value] :
             series_cells(r.series[j], r.workload_armed)) {
          out += sep;
          out += '"';
          out += key;
          out += "\": " + value;
          sep = ", ";
        }
        out += "}";
      }
      out += "]}";
    }
    if (r.workload_armed) {
      // Whole-run serving totals; emitted only for workload scenarios so
      // every pre-existing report keeps its exact bytes.
      out += ",\n     \"workload\": {\"issued\": " + fmt_u64(r.wl_issued) +
             ", \"completed\": " + fmt_u64(r.wl_completed) +
             ", \"timeouts\": " + fmt_u64(r.wl_timeouts) + ", \"retried\": " +
             fmt_u64(r.wl_retries) + ", \"hits\": " + fmt_u64(r.wl_hits) +
             ", \"drops\": " + fmt_u64(r.wl_drops) + ", \"peak_inflight\": " +
             fmt_u64(r.wl_peak_inflight) + ", \"lat_p50\": " +
             fmt_u64(r.wl_p50) + ", \"lat_p99\": " + fmt_u64(r.wl_p99) +
             ", \"availability\": " +
             fmt_f(obs::availability(r.wl_completed, r.wl_timeouts)) + "}";
    }
    if (r.adversary_armed) {
      // Emitted only for jobs with Byzantine windows, so bestiary-free
      // reports keep their exact pre-D11 bytes.
      out += ",\n     \"adversary\": {\"correct_converged\": ";
      out += r.correct_converged ? "true" : "false";
      out += ", \"contained_violations\": " + fmt_u64(r.contained_violations) +
             ", \"windows\": [";
      for (std::size_t j = 0; j < r.byz_windows.size(); ++j) {
        const ByzWindowOutcome& w = r.byz_windows[j];
        if (j) out += ", ";
        out += "{\"begin\": " + fmt_u64(w.begin) + ", \"end\": " +
               fmt_u64(w.end) + ", \"kind\": \"";
        out += adversary::behavior_name(w.kind);
        out += "\", \"hosts\": [";
        for (std::size_t k = 0; k < w.hosts.size(); ++k) {
          if (k) out += ", ";
          out += fmt_u64(w.hosts[k]);
        }
        out += "], \"contained\": " + fmt_u64(w.contained) + "}";
      }
      out += "]}";
    }
    out += ", \"events\": [";
    for (std::size_t j = 0; j < r.events.size(); ++j) {
      const EventOutcome& e = r.events[j];
      if (j) out += ", ";
      out += "{\"kind\": \"";
      out += event_kind_name(e.kind);
      out += "\", \"round\": " + fmt_u64(e.round) + ", \"recovered\": ";
      out += e.recovered ? "true" : "false";
      out += ", \"recovery_rounds\": " + fmt_u64(e.recovery_rounds) + "}";
    }
    out += "]}";
    out += i + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  ]";
  if (perf.rounds > 0) {
    // Wall-clock phase profile — present only under --profile, which no CI
    // golden arms; the deterministic document above is unchanged without it.
    out += ",\n  \"perf\": " + obs::perf_json(perf);
  }
  out += "\n}\n";
  return out;
}

core::Table CampaignReport::to_table() const {
  core::Table t({"job", "family", "hosts", "seed", "converged", "rounds",
                 "messages", "dropped", "resets", "peak_deg", "deg_exp"});
  for (const JobResult& r : results) {
    t.add_row({fmt_u64(r.spec.index), graph::family_name(r.spec.family),
               fmt_u64(r.spec.n_hosts), fmt_u64(r.spec.seed),
               r.converged ? "yes" : "NO", fmt_u64(r.rounds),
               fmt_u64(r.messages), fmt_u64(r.messages_dropped),
               fmt_u64(r.resets), fmt_u64(r.peak_degree),
               fmt_f(r.degree_expansion)});
  }
  return t;
}

core::Table CampaignReport::aggregate_table() const {
  core::Table t({"metric", "mean", "min", "max", "p50", "p90", "p99"});
  for (const auto& [key, stats] : aggregate) add_stats_row(t, key, stats);
  return t;
}

core::Table CampaignReport::series_table() const {
  // Workload columns appear only when some job armed the workload, so the
  // CSV for pre-existing scenarios keeps its exact shape.
  bool any_wl = false;
  for (const JobResult& r : results) any_wl = any_wl || r.workload_armed;
  std::vector<std::string> cols = {"job"};
  for (const auto& cell : series_cells(obs::SeriesSample{}, any_wl)) {
    cols.push_back(cell.first);
  }
  core::Table t(cols);
  for (const JobResult& r : results) {
    if (!r.series_armed) continue;
    for (const obs::SeriesSample& s : r.series) {
      std::vector<std::string> row = {fmt_u64(r.spec.index)};
      for (auto& cell : series_cells(s, any_wl)) {
        row.push_back(std::move(cell.second));
      }
      t.add_row(row);
    }
  }
  return t;
}

}  // namespace chs::campaign
