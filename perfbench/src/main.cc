// odbench: one workload of the OD pipeline benchmark per process.
//
//   odbench --workload train|serve|replay --seed N --seconds S --trace 0|1
//           [--out DIR]
//
// Prints the named figures of the workload, a host stamp, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
// (which also writes a Chrome trace of the benchmark's spans to DIR).
// Exits 1 when any output check failed, 2 on bad arguments or a failed
// set-up (which prints no result line).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: odbench --workload train|serve|replay --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  odb::Options opt;
  opt.out_dir = ".bench_out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--out") {
      opt.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || opt.seconds < 1) return Usage();

  int (*run)(const odb::Options&, odb::Result&, odb::SpanLog*) = nullptr;
  if (opt.workload == "train") run = odb::RunTrain;
  if (opt.workload == "serve") run = odb::RunServe;
  if (opt.workload == "replay") run = odb::RunReplay;
  if (run == nullptr) return Usage();

  const std::string tag = opt.workload + "-seed" + std::to_string(opt.seed) +
                          "-trace" + (opt.trace ? "1" : "0");
  opt.work_dir = opt.out_dir + "/work-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", opt.work_dir.c_str());
    return 2;
  }

  bool comparable = true;
  const std::string host = odb::HostStampJson(&comparable);
  std::printf("host %s\n", host.c_str());
  if (!comparable) {
    std::printf("warning: ODF_* variables are set; this run is not at the "
                "program's defaults and is not comparable\n");
  }

  odb::Result result;
  odb::SpanLog spans;
  const int rc = run(opt, result, opt.trace ? &spans : nullptr);
  std::filesystem::remove_all(opt.work_dir, ec);
  if (rc != 0) {
    std::fprintf(stderr, "%s: set-up failed\n", opt.workload.c_str());
    return 2;
  }
  if (result.attempted < 1) result.Fail("no operation attempted");

  std::string metrics;
  for (const auto& [name, value_unit] : result.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), value_unit.first,
                  value_unit.second.c_str());
    metrics += buf;
  }
  char head[160];
  std::snprintf(head, sizeof head,
                "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, ",
                result.correct ? "true" : "false",
                static_cast<long long>(result.attempted),
                static_cast<long long>(result.failed));
  const std::string line = std::string(head) + "\"metrics\": {" + metrics + "}}";

  // The kept record of this run: host stamp, named figures, result line.
  if (std::FILE* f = std::fopen((opt.out_dir + "/" + tag + ".json").c_str(), "w")) {
    std::fprintf(f, "{\"host\": %s,\n \"report\": [\n", host.c_str());
    for (size_t i = 0; i < result.report.size(); ++i) {
      std::fprintf(f, "  \"%s\"%s\n", result.report[i].c_str(),
                   i + 1 < result.report.size() ? "," : "");
    }
    std::fprintf(f, " ],\n \"failures\": [");
    for (size_t i = 0; i < result.failures.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", result.failures[i].c_str());
    }
    std::fprintf(f, "],\n \"result\": %s}\n", line.c_str());
    std::fclose(f);
  }
  if (opt.trace) {
    const std::string trace_path = opt.out_dir + "/" + tag + ".trace.json";
    if (!spans.WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    } else {
      std::printf("chrome trace: %s\n", trace_path.c_str());
    }
  }
  std::printf("%s\n", line.c_str());
  return result.correct ? 0 : 1;
}
