// qfcard_perfbench: runs one benchmark workload and prints its result as
// one JSON object on the last line of standard output.
//
//   qfcard_perfbench --workload <serve_open_routes|adaptive_rw|offline_eval>
//                    --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a traced run and writes its spans as Chrome trace-event JSON
// into --out-dir. Every run also writes a record of its identity, sample
// counts and metrics there. A failed output check prints correct=false
// with no metrics and exits 1. Normally run through run.py.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "bench.h"
#include "metric_names.h"

namespace {

using perfbench::Report;

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !kv.count("--workload") || !kv.count("--seed")) return false;
  args->workload = kv["--workload"];
  char* end = nullptr;
  args->seed = std::strtoull(kv["--seed"].c_str(), &end, 10);
  if (end == kv["--seed"].c_str() || *end != '\0') return false;
  if (kv.count("--seconds")) args->seconds = std::atof(kv["--seconds"].c_str());
  if (!(args->seconds > 0 && args->seconds <= 600)) return false;
  args->trace = kv.count("--trace") && kv["--trace"] == "1";
  args->out_dir = kv.count("--out-dir") ? kv["--out-dir"] : ".";
  return true;
}

std::string MetricsJson(const std::vector<Report::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// The printed metric set must be exactly the declared one.
void CheckMetricSet(Report* report, bool trace) {
  const std::vector<Report::Metric>& have = trace ? report->layer() : report->e2e();
  std::set<std::string> want;
  if (trace) {
    for (const auto& m : perfbench::kLayerMetrics) want.insert(m.name);
  } else {
    for (const auto& m : perfbench::kEndToEndMetrics) want.insert(m.name);
  }
  std::set<std::string> got;
  for (const Report::Metric& m : have) {
    got.insert(m.name);
    report->Check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  report->Check(got == want, "printed metric set differs from metric_names.h");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: qfcard_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  const std::map<std::string, perfbench::Workload> workloads = {
      {"serve_open_routes", &perfbench::RunServeOpenRoutes},
      {"adaptive_rw", &perfbench::RunAdaptiveRw},
      {"offline_eval", &perfbench::RunOfflineEval},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);

  Report report;
  report.Note("workload", args.workload);
  report.Note("seed", std::to_string(args.seed));
  report.Note("seconds", args.seconds);
  report.Note("trace", args.trace ? "1" : "0");
  report.Note("nproc", perfbench::NumCpus());
  report.Note("build_type", QFCARD_PERFBENCH_BUILD_TYPE);
  it->second(args, &report);

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  if (args.trace) {
    perfbench::FillLayerDefaults(&report);
    const std::string trace_path = stem + ".trace.json";
    report.Check(perfbench::WriteTraceEvents(perfbench::AllSpans(), trace_path),
                 "cannot write " + trace_path);
    report.Note("trace_file", trace_path);
  }
  CheckMetricSet(&report, args.trace);

  const std::vector<Report::Metric>& metrics =
      args.trace ? report.layer() : report.e2e();
  std::string record = "{\"notes\": {";
  bool first = true;
  for (const auto& [k, v] : report.notes()) {
    record += (first ? "" : ", ") + Quote(k) + ": " + Quote(v);
    first = false;
  }
  record += "}, \"check_failures\": [";
  for (size_t i = 0; i < report.check_failures().size(); ++i) {
    record += (i ? ", " : "") + Quote(report.check_failures()[i]);
  }
  record += "], \"metrics\": " + MetricsJson(metrics) + "}\n";
  std::ofstream(stem + ".record.json") << record;

  for (const auto& [k, v] : report.notes()) {
    std::fprintf(stderr, "  %-28s %s\n", k.c_str(), v.c_str());
  }
  if (!report.correct()) {
    for (const std::string& f : report.check_failures()) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
    }
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                static_cast<unsigned long long>(std::max<uint64_t>(report.attempted(), 1)),
                static_cast<unsigned long long>(report.failed()));
    return 1;
  }
  for (const Report::Metric& m : metrics) {
    std::printf("%-30s %16s %s\n", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str());
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}
