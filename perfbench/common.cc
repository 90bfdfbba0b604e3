#include "common.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>

#include "common/parallel.h"
#include "core/assoc_cache.h"
#include "core/association.h"
#include "core/evaluate.h"
#include "core/invariants.h"
#include "causal/graph.h"
#include "causal/ranking.h"
#include "mic/mic.h"
#include "net/frame.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "obs/http.h"
#include "stats.h"
#include "timeseries/arima.h"

namespace invarnetx::perfbench {

void Outcome::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Outcome::Config(const std::string& key, const std::string& value) {
  config.emplace_back(key, value);
}

void Outcome::Figure(const std::string& name, double value,
                     const std::string& unit, size_t count) {
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %14.6f %-5s (n=%zu)", name.c_str(),
                value, unit.c_str(), count);
  figures.emplace_back(line);
}

void Outcome::Timing(const std::string& name,
                     const std::vector<double>& seconds) {
  const Summary s = Summarize(seconds);
  Figure(name + "_p50_ms", s.p50 * 1e3, "ms", s.count);
  char tail[32];
  std::snprintf(tail, sizeof(tail), "_tail_p%g_ms", s.tail_q * 100);
  Figure(name + tail, s.tail * 1e3, "ms", s.count);
}

serve::FleetConfig FleetSettings(int threads, size_t monitors) {
  serve::FleetConfig config;
  config.window_capacity = kWindowTicks;
  config.threads = threads;
  config.shards = kShards;
  config.expected_monitors = monitors;
  config.diagnose_on_alarm = threads != 1;
  return config;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + a * 0xBF58476D1CE4E5B9ull +
               b * 0x94D049BB133111EBull + 0x2545F4914F6CDD1Dull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0xFFFFFFFFFFFFull;  // keep seed arithmetic small
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double MedianSeconds(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

core::OperationContext FleetContext(int i) {
  return core::OperationContext{
      workload::WorkloadType::kWordCount,
      "10." + std::to_string(i / 62500) + "." + std::to_string(i / 250 % 250) +
          "." + std::to_string(i % 250 + 1)};
}

telemetry::NodeTrace SliceNode(const telemetry::NodeTrace& node, size_t begin,
                               size_t end) {
  telemetry::NodeTrace out;
  out.ip = node.ip;
  out.cpi.assign(node.cpi.begin() + static_cast<ptrdiff_t>(begin),
                 node.cpi.begin() + static_cast<ptrdiff_t>(end));
  for (size_t m = 0; m < telemetry::kNumMetrics; ++m) {
    out.metrics[m].assign(
        node.metrics[m].begin() + static_cast<ptrdiff_t>(begin),
        node.metrics[m].begin() + static_cast<ptrdiff_t>(end));
  }
  return out;
}

void FillSample(const telemetry::NodeTrace& node, size_t t,
                serve::TickSample* sample) {
  sample->cpi = node.cpi[t];
  for (size_t m = 0; m < telemetry::kNumMetrics; ++m) {
    sample->metrics[m] = node.metrics[m][t];
  }
}

std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    const std::string request =
        "GET " + path + " HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n";
    if (::send(fd, request.data(), request.size(), 0) ==
        static_cast<ssize_t>(request.size())) {
      char buffer[16384];
      ssize_t n = 0;
      while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
        response.append(buffer, static_cast<size_t>(n));
      }
    }
  }
  ::close(fd);
  return response;
}

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Shared().GetCounter(name).value();
}

namespace {

HistogramMark MarkHistogram(const std::string& name) {
  const obs::Histogram& h = obs::MetricsRegistry::Shared().GetHistogram(name);
  HistogramMark mark;
  for (size_t i = 0; i <= obs::Histogram::kNumBuckets; ++i) {
    mark.buckets.push_back(h.bucket_count(i));
  }
  return mark;
}

// The q-th percentile (bucket upper bound) of what the histogram recorded
// since `mark`.
double HistogramPercentileSince(const std::string& name,
                                const HistogramMark& mark, double q) {
  const HistogramMark now = MarkHistogram(name);
  uint64_t total = 0;
  for (size_t i = 0; i < now.buckets.size(); ++i) {
    total += now.buckets[i] - mark.buckets[i];
  }
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < now.buckets.size(); ++i) {
    seen += now.buckets[i] - mark.buckets[i];
    if (static_cast<double>(seen) >= target) {
      return obs::Histogram::BucketUpperBound(i);
    }
  }
  return obs::Histogram::BucketUpperBound(obs::Histogram::kNumBuckets);
}

// Sum of every threadpool.busy_seconds.w<N> gauge.
double PoolBusySeconds() {
  const obs::MetricsRegistry::Snapshot snap =
      obs::MetricsRegistry::Shared().Snap();
  double busy = 0.0;
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind("threadpool.busy_seconds.w", 0) == 0) busy += value;
  }
  return busy;
}

// CPU time stolen from this machine by its host, summed over CPUs
// (/proc/stat), in seconds; 0 where the kernel does not report it.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  stat >> cpu;
  for (double& field : fields) stat >> field;
  const long ticks_per_second = ::sysconf(_SC_CLK_TCK);
  return cpu == "cpu" && ticks_per_second > 0 ? fields[7] / ticks_per_second
                                               : 0.0;
}

}  // namespace

PhaseCounters::PhaseCounters()
    : queue_wait_(MarkHistogram("threadpool.queue_wait")),
      busy_seconds_(PoolBusySeconds()),
      hits_(core::AssociationScoreCache::Shared().hits()),
      misses_(core::AssociationScoreCache::Shared().misses()),
      pairs_scored_(CounterValue("assoc.pairs_scored")),
      steal_seconds_(StealSeconds()) {}

void PhaseCounters::Finish(double wall_seconds, Outcome* outcome) const {
  const core::AssociationScoreCache& cache =
      core::AssociationScoreCache::Shared();
  const double hits = static_cast<double>(cache.hits() - hits_);
  const double misses = static_cast<double>(cache.misses() - misses_);
  outcome->layers["core.assoc_cache_hit_rate"] = {
      hits + misses > 0 ? hits / (hits + misses) : 0.0, "share"};
  outcome->layers["mic.pairs_scored"] = {
      static_cast<double>(CounterValue("assoc.pairs_scored") - pairs_scored_),
      "count"};
  outcome->layers["pool.queue_wait_p99_ms"] = {
      HistogramPercentileSince("threadpool.queue_wait", queue_wait_, 0.99) *
          1e3,
      "ms"};
  // Host contention during the phase, so a noisy run can be told apart.
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  outcome->Figure("host_steal_share",
                  wall_seconds > 0 ? (StealSeconds() - steal_seconds_) /
                                         (wall_seconds * cpus)
                                   : 0.0,
                  "share", cpus);
  const int workers = ThreadPool::Shared().size();
  outcome->layers["pool.busy_share"] = {
      wall_seconds > 0 && workers > 0
          ? (PoolBusySeconds() - busy_seconds_) / (wall_seconds * workers)
          : 0.0,
      "share"};
}

namespace {

constexpr int kProbeMonitors = 1000;
constexpr int kProbeTicks = 40;
constexpr int kProbeWindows = 6;
constexpr int kProbeMicPairs = 40;
constexpr int kObserveBatch = 32;

// A span opened only for layers that had no span before the probe started,
// so probe timings never mix into a layer the timed path already measured.
class ProbeSpan {
 public:
  ProbeSpan(Tracer& tracer, const std::set<std::string>& missing,
            const std::string& name)
      : tracer_(tracer),
        index_(missing.count(name) ? tracer.Begin(name, "probe") : -1) {}
  ~ProbeSpan() { tracer_.End(index_); }

  ProbeSpan(const ProbeSpan&) = delete;
  ProbeSpan& operator=(const ProbeSpan&) = delete;

 private:
  Tracer& tracer_;
  const int index_;
};

struct LayerMetric {
  const char* metric;
  const char* span;
  double scale;
  const char* unit;
};

// Per-layer metric <- p50 of the named span, scaled to the metric's unit.
constexpr LayerMetric kTimedLayers[] = {
    {"net.encode_tick_ms", "net.encode_tick", 1e3, "ms"},
    {"net.decode_tick_ms", "net.decode_tick", 1e3, "ms"},
    {"serve.ingest_tick_ms", "serve.ingest_tick", 1e3, "ms"},
    {"serve.ingest_tick_serial_ms", "serve.ingest_tick_serial", 1e3, "ms"},
    {"serve.rearm_ms", "serve.rearm", 1e3, "ms"},
    {"core.infer_cause_ms", "core.infer_cause", 1e3, "ms"},
    {"core.assoc_matrix_ms", "core.assoc_matrix", 1e3, "ms"},
    {"core.violation_tuple_us", "core.violation_tuple", 1e6, "us"},
    {"core.sigdb_query_us", "core.sigdb_query", 1e6, "us"},
    {"causal.rank_ms", "causal.rank", 1e3, "ms"},
    {"mic.pair_us", "mic.pair", 1e6, "us"},
    {"ts.fit_arima_ms", "ts.fit_arima", 1e3, "ms"},
    {"ts.observe_ns", "ts.observe", 1e9 / kObserveBatch, "ns"},
    {"core.train_context_ms", "core.train_context", 1e3, "ms"},
    {"core.add_signature_ms", "core.add_signature", 1e3, "ms"},
    {"core.retrain_context_ms", "core.retrain_context", 1e3, "ms"},
    {"obs.scrape_ms", "obs.scrape", 1e3, "ms"},
};

}  // namespace

void ProbeMissingLayers(const ProbeInputs& in, Tracer& tracer,
                        Outcome* outcome) {
  std::set<std::string> missing;
  for (const LayerMetric& layer : kTimedLayers) {
    if (tracer.CountOf(layer.span) == 0) missing.insert(layer.span);
  }
  if (tracer.CountOf("net.tick_rtt") == 0) missing.insert("net.tick_rtt");
  if (missing.empty()) return;
  const std::vector<telemetry::RunTrace>& runs = in.runs;
  const core::OperationContext& context = in.context;
  auto trace_of = [&](int i) -> const telemetry::NodeTrace& {
    const size_t n = static_cast<size_t>(i);
    const telemetry::RunTrace& run = runs[n % runs.size()];
    return run.nodes[1 + n / runs.size() % (run.nodes.size() - 1)];
  };
  size_t ticks = kProbeTicks;
  for (const telemetry::RunTrace& run : runs) {
    ticks = std::min(ticks, static_cast<size_t>(run.ticks));
  }

  // Fleet, wire and transport layers. A global-model pipeline serves any
  // number of monitors; a per-context one serves one monitor per context.
  std::vector<core::OperationContext> contexts;
  if (!in.pipeline->config().use_operation_context) {
    for (int i = 0; i < kProbeMonitors; ++i) {
      contexts.push_back(FleetContext(i));
    }
  } else {
    contexts = in.fleet_contexts;
  }
  const int monitors = static_cast<int>(contexts.size());
  std::vector<serve::TickSample> batch(contexts.size());
  auto fill = [&](size_t t) {
    for (int i = 0; i < monitors; ++i) {
      FillSample(trace_of(i), t, &batch[static_cast<size_t>(i)]);
    }
  };
  // Codec and ingest times of the probe's own batches, so the transport
  // share of its loopback round trip is split at one batch size.
  std::vector<double> codec_ingest_s, rtt_s;
  for (int threads : {kThreads, 1}) {
    serve::MonitorFleet fleet(in.pipeline,
                              FleetSettings(threads, kProbeMonitors));
    for (int rep = 0; rep < 3; ++rep) {
      ProbeSpan span(tracer, missing, threads == 1 ? "" : "serve.rearm");
      for (int i = 0; i < monitors; ++i) {
        Result<serve::MonitorHandle> handle =
            fleet.StartJob(contexts[static_cast<size_t>(i)]);
        if (!handle.ok()) return;
        batch[static_cast<size_t>(i)].monitor = handle.value();
      }
    }
    for (size_t t = 0; t < ticks; ++t) {
      fill(t);
      if (threads == 1) {
        ProbeSpan span(tracer, missing, "serve.ingest_tick_serial");
        (void)fleet.IngestTick(batch);
        continue;
      }
      const Clock::time_point start = Clock::now();
      std::string encoded;
      {
        ProbeSpan span(tracer, missing, "net.encode_tick");
        encoded = net::EncodeTick(batch);
      }
      outcome->layers.try_emplace(
          "net.wire_bytes_per_sample",
          Metric{static_cast<double>(encoded.size()) / monitors, "B"});
      {
        ProbeSpan span(tracer, missing, "net.decode_tick");
        (void)net::DecodeTick(std::string_view(encoded).substr(5));
      }
      {
        ProbeSpan span(tracer, missing, "serve.ingest_tick");
        (void)fleet.IngestTick(batch);
      }
      codec_ingest_s.push_back(SecondsBetween(start, Clock::now()));
    }
    fleet.WaitForDiagnoses();
  }
  if (missing.count("net.tick_rtt")) {
    serve::MonitorFleet fleet(in.pipeline,
                              FleetSettings(kThreads, kProbeMonitors));
    net::IngestServerOptions server_options;
    server_options.max_frame_bytes =
        contexts.size() * net::kBinarySampleBytes + 4096;
    net::IngestServer server(&fleet, nullptr, server_options);
    if (server.Start().ok()) {
      net::IngestClientOptions client_options;
      client_options.port = server.port();
      client_options.max_frame_bytes = server_options.max_frame_bytes;
      net::IngestClient client(client_options);
      std::vector<net::HelloEntry> entries;
      for (const core::OperationContext& c : contexts) {
        entries.push_back({workload::WorkloadName(c.workload), c.node_ip});
      }
      if (client.Connect().ok()) {
        auto handles = client.Hello(entries);
        if (handles.ok()) {
          for (size_t i = 0; i < batch.size(); ++i) {
            batch[i].monitor = handles.value()[i];
          }
          for (size_t t = 0; t < ticks; ++t) {
            fill(t);
            const Clock::time_point start = Clock::now();
            ProbeSpan span(tracer, missing, "net.tick_rtt");
            if (!client.Tick(batch).ok()) break;
            rtt_s.push_back(SecondsBetween(start, Clock::now()));
          }
          (void)client.EndJob();
          (void)client.Bye();
        }
        client.Close();
      }
      server.Stop();
    }
    fleet.WaitForDiagnoses();
  }
  if (!rtt_s.empty() && !codec_ingest_s.empty()) {
    outcome->layers.try_emplace(
        "net.transport_ms",
        Metric{(Percentile(rtt_s, 0.5) - Percentile(codec_ingest_s, 0.5)) *
                   1e3,
               "ms"});
  }
  if (missing.count("obs.scrape")) {
    obs::HttpServer http;
    http.Handle("/metrics", [](const obs::HttpRequest&) {
      obs::HttpResponse response;
      response.content_type = "application/openmetrics-text";
      response.body = obs::MetricsRegistry::Shared().RenderOpenMetrics();
      return response;
    });
    if (http.Start().ok()) {
      for (int i = 0; i < 5; ++i) {
        std::string body;
        {
          ProbeSpan span(tracer, missing, "obs.scrape");
          body = HttpGet(http.port(), "/metrics");
        }
        outcome->layers.try_emplace(
            "obs.scrape_bytes", Metric{static_cast<double>(body.size()), "B"});
      }
      http.Stop();
    }
  }

  // Training layers, on a scratch pipeline with the workload's settings:
  // cold train, one signature, slid-window retrain.
  core::InvarNetXConfig scratch_config = in.pipeline->config();
  core::InvarNetX scratch(scratch_config);
  const std::vector<telemetry::RunTrace> first(runs.begin(), runs.end() - 1);
  const std::vector<telemetry::RunTrace> slid(runs.begin() + 1, runs.end());
  {
    ProbeSpan span(tracer, missing, "core.train_context");
    (void)scratch.TrainContext(context, first, 1);
  }
  Result<telemetry::RunTrace> fault = core::SimulateFaultRun(
      context.workload, faults::FaultType::kCpuHog, DeriveSeed(in.seed, 77));
  if (fault.ok()) {
    ProbeSpan span(tracer, missing, "core.add_signature");
    (void)scratch.AddSignature(context, "cpu-hog", fault.value(), 1);
  }
  {
    ProbeSpan span(tracer, missing, "core.retrain_context");
    (void)scratch.TrainContext(context, slid, 1);
  }

  // Diagnosis layers on windows of the workload's own series, against a
  // model with a signature base (the workload's own when it has one).
  std::shared_ptr<const core::ContextModel> model =
      in.pipeline->GetContext(context).value();
  const core::InvarNetX* diagnoser = in.pipeline;
  if (model->sigdb.size() == 0 && scratch.HasContext(context)) {
    model = scratch.GetContext(context).value();
    diagnoser = &scratch;
  }
  const core::InvarNetXConfig& config = diagnoser->config();
  const std::unique_ptr<core::AssociationEngine> engine =
      core::AssociationEngine::Make(config.engine);
  core::AssociationOptions cold;
  cold.num_threads = kThreads;
  cold.use_cache = false;
  int fallbacks = 0;
  for (int w = 0; w < kProbeWindows; ++w) {
    const telemetry::NodeTrace& node = trace_of(w + 1);
    {
      ProbeSpan span(tracer, missing, "core.infer_cause");
      Result<core::DiagnosisReport> report =
          diagnoser->InferCauseForModel(*model, node);
      if (report.ok() && report.value().used_causal_fallback) ++fallbacks;
    }
    Result<core::AssociationMatrix> matrix = Status::Internal("unset");
    {
      ProbeSpan span(tracer, missing, "core.assoc_matrix");
      matrix = core::ComputeAssociationMatrix(node, *engine, cold);
    }
    if (!matrix.ok()) continue;
    std::vector<double> deviations;
    Result<std::vector<uint8_t>> tuple = Status::Internal("unset");
    {
      ProbeSpan span(tracer, missing, "core.violation_tuple");
      tuple = core::ComputeViolationTuple(model->invariants, matrix.value(),
                                          config.epsilon, &deviations);
    }
    if (!tuple.ok()) continue;
    if (model->sigdb.size() > 0) {
      ProbeSpan span(tracer, missing, "core.sigdb_query");
      (void)model->sigdb.Query(tuple.value(), config.similarity, config.top_k);
    }
    ProbeSpan span(tracer, missing, "causal.rank");
    Result<causal::InvariantGraph> graph = causal::BuildInvariantGraph(
        model->invariants.present, model->invariants.values, tuple.value(),
        deviations);
    if (graph.ok()) {
      causal::RankingOptions options;
      options.iterations = config.causal_iterations;
      options.damping = config.causal_damping;
      options.top_k = config.causal_top_k;
      (void)causal::RankSuspects(graph.value(), options);
    }
  }

  outcome->layers.try_emplace(
      "core.causal_fallback_share",
      Metric{static_cast<double>(fallbacks) / kProbeWindows, "share"});

  // Kernels: one MIC pair single-threaded, ARIMA fit, one-step observe.
  const telemetry::NodeTrace& node = trace_of(0);
  for (int p = 0; p < kProbeMicPairs; ++p) {
    const size_t a = static_cast<size_t>(p) % telemetry::kNumMetrics;
    const size_t b = (a + 1 + static_cast<size_t>(p) / telemetry::kNumMetrics) %
                     telemetry::kNumMetrics;
    ProbeSpan span(tracer, missing, "mic.pair");
    (void)mic::MicScore(node.metrics[a], node.metrics[b]);
  }
  for (int i = 0; i < 4; ++i) {
    const telemetry::NodeTrace& series = trace_of(i);
    Result<ts::ArimaModel> fit = Status::Internal("unset");
    {
      ProbeSpan span(tracer, missing, "ts.fit_arima");
      fit = ts::FitArimaAuto(series.cpi);
    }
    if (!fit.ok()) continue;
    ts::ArimaPredictor predictor(fit.value());
    const size_t n = std::min<size_t>(kObserveBatch, series.cpi.size());
    if (n < kObserveBatch) continue;
    ProbeSpan span(tracer, missing, "ts.observe");
    double sink = 0.0;
    for (size_t t = 0; t < n; ++t) sink += predictor.Observe(series.cpi[t]);
    if (sink < 0) std::fprintf(stderr, "impossible\n");
  }
}


void FinishLayers(const Tracer& tracer, double timed_seconds,
                  size_t timed_spans, double traced_throughput,
                  Outcome* outcome) {
  const std::map<std::string, LayerStats> layers = tracer.Layers();
  auto p50 = [&](const char* span) {
    auto it = layers.find(span);
    return it == layers.end() ? 0.0 : it->second.p50_s;
  };
  for (const LayerMetric& def : kTimedLayers) {
    outcome->layers[def.metric] = {p50(def.span) * def.scale, def.unit};
  }
  auto ingest = layers.find("serve.ingest_tick");
  outcome->layers["serve.ingest_tick_p99_ms"] = {
      ingest == layers.end() ? 0.0 : ingest->second.p99_s * 1e3, "ms"};
  outcome->layers["serve.thread_scaling"] = {
      p50("serve.ingest_tick") > 0
          ? p50("serve.ingest_tick_serial") / p50("serve.ingest_tick")
          : 0.0,
      "x"};
  // On the path (ingest-steady) transport is the round trip minus the
  // bench-side codec and twin-fleet ingest of the same batch; elsewhere the
  // probe set it from its own loopback session.
  outcome->layers.try_emplace("net.transport_ms", Metric{
      (p50("net.tick_rtt") - p50("net.encode_tick") - p50("net.decode_tick") -
       p50("serve.ingest_tick")) *
          1e3,
      "ms"});
  // Counts the workload did not set are zero on its path.
  for (const char* name :
       {"serve.diagnosis_backlog_max", "serve.samples_rejected",
        "serve.alarms", "serve.verdicts", "core.pairs_rescored",
        "core.pairs_reused"}) {
    outcome->layers.try_emplace(name, Metric{0.0, "count"});
  }
  outcome->layers.try_emplace("core.causal_fallback_share",
                              Metric{0.0, "share"});
  const double span_cost = Tracer::SpanCostSeconds();
  outcome->layers["trace.overhead_share"] = {
      timed_seconds > 0
          ? span_cost * static_cast<double>(timed_spans) / timed_seconds
          : 0.0,
      "share"};
  outcome->layers["trace.throughput_per_s"] = {traced_throughput, "1/s"};

  std::printf("layer                         count      p50_ms      p99_ms "
              "self_p50_ms self_total_s\n");
  for (const auto& [name, stats] : layers) {
    std::printf("%-28s %6zu %11.4f %11.4f %11.4f %12.4f\n", name.c_str(),
                stats.count, stats.p50_s * 1e3, stats.p99_s * 1e3,
                stats.self_p50_s * 1e3, stats.self_total_s);
  }
  std::printf("tracing: %zu spans in the timed phase, %.0f ns per span, "
              "overhead share %.6f\n",
              timed_spans, span_cost * 1e9,
              outcome->layers["trace.overhead_share"].value);
}

}  // namespace invarnetx::perfbench
