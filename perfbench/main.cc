// The repo benchmark's driver binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//
// Runs one workload (ingest-steady, incident-burst, train-retrain) in this
// process, prints the fixed settings, the figures with their sample counts
// and, in traced mode, one line per layer; the last line of stdout is the
// result object: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (untraced) or the per-layer metrics (traced).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/log.h"
#include "workloads.h"

namespace invarnetx::perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ingest-steady|incident-burst|train-retrain --seed N "
               "--seconds S --trace 0|1 --out-dir DIR\n",
               why);
  return 2;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintResult(const Outcome& outcome, bool trace) {
  const std::map<std::string, Metric>& metrics =
      trace ? outcome.layers : outcome.e2e;
  std::string json = "{\"correct\": ";
  json += outcome.correct && outcome.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  RunArgs args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("options take one value each");
  if (!have_seed || !have_seconds || !have_trace || args.out_dir.empty()) {
    return Usage("--seed, --seconds, --trace and --out-dir are required");
  }
  Outcome (*run)(const RunArgs&, Tracer&) = nullptr;
  if (args.workload == "ingest-steady") run = RunIngestSteady;
  if (args.workload == "incident-burst") run = RunIncidentBurst;
  if (args.workload == "train-retrain") run = RunTrainRetrain;
  if (run == nullptr) return Usage("unknown workload");

  obs::SetLogLevel(obs::LogLevel::kError);
  Tracer tracer(args.trace);
  Outcome outcome = run(args, tracer);

  std::printf("config workload=%s seed=%llu seconds=%g trace=%d nproc=%u\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency());
  for (const auto& [key, value] : outcome.config) {
    std::printf("config %s=%s\n", key.c_str(), value.c_str());
  }
  for (const std::string& line : outcome.figures) {
    std::printf("figure %s\n", line.c_str());
  }
  std::printf("operations attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.correct ? "yes" : "no");
  for (const std::string& why : outcome.failures) {
    std::printf("failure %s\n", why.c_str());
  }
  for (const auto& [name, metric] : outcome.e2e) {
    std::printf("e2e %-22s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  if (args.trace) {
    for (const auto& [name, metric] : outcome.layers) {
      std::printf("layer_metric %-30s %16.6f %s\n", name.c_str(),
                  metric.value, metric.unit.c_str());
    }
    const std::string path = args.out_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    const Status written = tracer.WriteChromeTrace(path);
    std::printf("spans %zu written to %s (%s)\n", tracer.size(), path.c_str(),
                written.ok() ? "ok" : written.ToString().c_str());
  }
  std::fflush(stdout);
  PrintResult(outcome, args.trace);
  return 0;
}

}  // namespace
}  // namespace invarnetx::perfbench

int main(int argc, char** argv) {
  return invarnetx::perfbench::Main(argc, argv);
}
