#ifndef INVARNETX_PERFBENCH_COMMON_H_
#define INVARNETX_PERFBENCH_COMMON_H_

// Shared plumbing of the benchmark's workloads: fixed settings, the result
// record every workload fills, input generation from the run seed, registry
// deltas, and the layer probe that times every layer on a workload's own
// inputs in traced mode.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "obs/metrics.h"
#include "serve/fleet.h"
#include "telemetry/trace.h"
#include "tracer.h"

namespace invarnetx::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Every thread, shard and connection count is fixed here and printed with
// the results, so two runs are compared only when their settings match.
inline constexpr int kThreads = 4;          // fleet threads + pipeline threads
inline constexpr int kShards = 4;           // fleet shards
inline constexpr size_t kWindowTicks = 64;  // monitor window, in ticks
inline constexpr int kSetupRepeats = 5;     // set-ups per run (median)

struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;  // where traced runs write their span file
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What a workload run reports. `e2e` carries every end-to-end metric and
// `layers` every per-layer metric; `config` is the like-for-like settings
// block printed with the results.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> failures;  // first few, for the log
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  std::vector<std::pair<std::string, std::string>> config;
  // Human-readable figures under the names the design notes use
  // (samples_per_s, tick_p99_ms, verdict_p95_s, ...), with sample counts.
  std::vector<std::string> figures;

  void Fail(const std::string& what);
  void Config(const std::string& key, const std::string& value);
  void Config(const std::string& key, long long value) {
    Config(key, std::to_string(value));
  }
  // Adds a "name value unit (n=count)" line to `figures`.
  void Figure(const std::string& name, double value, const std::string& unit,
              size_t count);
  // Adds the median and the highest percentile with >= 10 samples beyond
  // it of `seconds`, in milliseconds, as "<name>_p50_ms" and
  // "<name>_tail_pNN_ms".
  void Timing(const std::string& name, const std::vector<double>& seconds);
};

// The benchmark's fleet settings for `monitors` monitors. A threads=1
// fleet would run diagnoses inline, so serial fleets (the single-threaded
// baseline) time the ingest kernel alone with diagnosis off.
serve::FleetConfig FleetSettings(int threads, size_t monitors);

// Deterministic sub-seed (splitmix64 of the run seed and two tags).
uint64_t DeriveSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

// Median of the set-up times (the contract's setup_s).
double MedianSeconds(std::vector<double> values);

// Context of fleet monitor `i`: one wordcount monitor per synthetic node.
core::OperationContext FleetContext(int i);

// Copies ticks [begin, end) of a node trace.
telemetry::NodeTrace SliceNode(const telemetry::NodeTrace& node, size_t begin,
                               size_t end);
// Writes tick `t` of `node` into `sample` (cpi + every metric).
void FillSample(const telemetry::NodeTrace& node, size_t t,
                serve::TickSample* sample);

// One GET over a fresh loopback connection; returns the whole response
// (head + body) or an empty string on failure.
std::string HttpGet(int port, const std::string& path);

// Lifetime value of a shared-registry counter, for deltas across a phase.
uint64_t CounterValue(const std::string& name);

// Bucket counts of a shared-registry histogram at one instant.
struct HistogramMark {
  std::vector<uint64_t> buckets;
};

// Registry marks taken right before a timed phase; Finish turns them into
// the pool / cache / MIC layer metrics over that phase.
class PhaseCounters {
 public:
  PhaseCounters();
  void Finish(double wall_seconds, Outcome* outcome) const;

 private:
  HistogramMark queue_wait_;
  double busy_seconds_ = 0.0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t pairs_scored_ = 0;
  double steal_seconds_ = 0.0;
};

// Inputs the layer probe times each layer on.
struct ProbeInputs {
  const core::InvarNetX* pipeline = nullptr;
  core::OperationContext context;  // trained in `pipeline`
  // Monitors for the fleet probe when the pipeline keeps one model per
  // operation context (a global-model pipeline serves any context).
  std::vector<core::OperationContext> fleet_contexts;
  // Normal runs of the context's workload; node 1 is the probed series.
  std::vector<telemetry::RunTrace> runs;
  uint64_t seed = 0;
};

// Times, on the workload's own inputs, every layer that has no span from
// the workload's timed path yet (so each traced run reports every layer):
// wire codec and loopback transport, fleet ingest (parallel and serial),
// re-arm, /metrics scrape, the diagnosis steps, MIC, ARIMA, training.
// Non-span layer metrics the probe measures (wire and scrape bytes, causal
// fallback share) are filled into `outcome` unless the workload set them.
void ProbeMissingLayers(const ProbeInputs& inputs, Tracer& tracer,
                        Outcome* outcome);

// Turns the tracer's spans into the per-layer metrics (p50 of each layer)
// and prints one line per layer with count, p50, p99 and self time.
void FinishLayers(const Tracer& tracer, double timed_seconds,
                  size_t timed_spans, double traced_throughput,
                  Outcome* outcome);

}  // namespace invarnetx::perfbench

#endif  // INVARNETX_PERFBENCH_COMMON_H_
