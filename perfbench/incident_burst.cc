// incident-burst: diagnosis under load.
//
// About 8k wordcount monitors share one global model that carries one
// signature per fault. Ticks are fed in-process through
// MonitorFleet::IngestTick, open loop at a fixed rate: each tick has a due
// time, and its latency runs from the due time to IngestTick's return, so a
// stall also counts against the ticks queued behind it. In each job ~2% of
// the monitors replay a fault run (fresh seed per monitor, the fault
// rotating through the faults that apply to wordcount); the rest replay
// normal runs. Between due times the benchmark polls TakeDiagnoses; a
// verdict's latency runs from the due time of the tick that latched its
// alarm to the poll that handed it back.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>

#include "causal/graph.h"
#include "causal/ranking.h"
#include "core/assoc_cache.h"
#include "core/association.h"
#include "core/evaluate.h"
#include "core/invariants.h"
#include "faults/fault.h"
#include "stats.h"
#include "workloads.h"

namespace invarnetx::perfbench {
namespace {

// 8k rather than 2k monitors: at 2k a tick (~1 ms) was mostly pool
// wake-up latency, and its p50 moved by ~40% between runs on a shared host.
constexpr int kMonitors = 8000;
constexpr int kFaultyPerJob = 160;  // 2% of the fleet
constexpr int kTicksPerSecond = 50;
constexpr int kTrainRuns = 4;
constexpr int kPoolRuns = 4;
constexpr size_t kTracedVerdicts = 64;  // cold, layer-split recomputes
constexpr double kDrainTimeoutSeconds = 60.0;
constexpr auto kSpinBeforeDue = std::chrono::microseconds(1500);

const workload::WorkloadType kWordCount = workload::WorkloadType::kWordCount;

std::vector<faults::FaultType> WordCountFaults() {
  std::vector<faults::FaultType> out;
  for (faults::FaultType f : faults::AllFaults()) {
    if (faults::AppliesTo(f, kWordCount)) out.push_back(f);
  }
  return out;
}

// One job's inputs: the trace every monitor replays, tick for tick.
struct JobInputs {
  std::vector<telemetry::RunTrace> pool;     // normal runs
  std::vector<telemetry::NodeTrace> faulty;  // victim node of each fault run
  std::vector<int> faulty_monitor;           // monitor of faulty[k]
  std::vector<const telemetry::NodeTrace*> replay;  // per monitor
  size_t ticks = 0;
};

Result<JobInputs> MakeJob(uint64_t seed, int job,
                          const std::vector<faults::FaultType>& faults) {
  JobInputs in;
  Result<std::vector<telemetry::RunTrace>> pool = core::SimulateNormalRuns(
      kWordCount, kPoolRuns, DeriveSeed(seed, 100, static_cast<uint64_t>(job)));
  if (!pool.ok()) return pool.status();
  in.pool = std::move(pool.value());
  in.ticks = SIZE_MAX;
  std::vector<const telemetry::NodeTrace*> normal;
  for (const telemetry::RunTrace& run : in.pool) {
    in.ticks = std::min(in.ticks, static_cast<size_t>(run.ticks));
    for (size_t n = 1; n < run.nodes.size(); ++n) {
      normal.push_back(&run.nodes[n]);
    }
  }
  for (int k = 0; k < kFaultyPerJob; ++k) {
    const faults::FaultType fault =
        faults[static_cast<size_t>(job * kFaultyPerJob + k) % faults.size()];
    Result<telemetry::RunTrace> run = core::SimulateFaultRun(
        kWordCount, fault,
        DeriveSeed(seed, 200 + static_cast<uint64_t>(job),
                   static_cast<uint64_t>(k)));
    if (!run.ok()) return run.status();
    in.ticks = std::min(in.ticks, static_cast<size_t>(run.value().ticks));
    in.faulty.push_back(std::move(run.value().nodes[1]));
    in.faulty_monitor.push_back((k * (kMonitors / kFaultyPerJob) + job * 7) %
                                kMonitors);
  }
  in.replay.resize(kMonitors);
  for (int i = 0; i < kMonitors; ++i) {
    in.replay[static_cast<size_t>(i)] =
        normal[static_cast<size_t>(i * 7 + job) % normal.size()];
  }
  for (size_t k = 0; k < in.faulty.size(); ++k) {
    in.replay[static_cast<size_t>(in.faulty_monitor[k])] = &in.faulty[k];
  }
  return in;
}

// Trained pipeline (global model + one signature per fault) and an armed
// fleet.
struct Rig {
  std::unique_ptr<core::InvarNetX> pipeline;
  std::unique_ptr<serve::MonitorFleet> fleet;
  std::vector<serve::MonitorHandle> handles;
};

core::InvarNetXConfig PipelineConfig() {
  core::InvarNetXConfig config;
  config.use_operation_context = false;
  config.num_threads = kThreads;
  return config;
}

Result<std::unique_ptr<Rig>> BuildRig(
    uint64_t seed, const std::vector<faults::FaultType>& faults) {
  auto rig = std::make_unique<Rig>();
  Result<std::vector<telemetry::RunTrace>> training =
      core::SimulateNormalRuns(kWordCount, kTrainRuns, DeriveSeed(seed, 1));
  if (!training.ok()) return training.status();
  rig->pipeline = std::make_unique<core::InvarNetX>(PipelineConfig());
  INVARNETX_RETURN_IF_ERROR(
      rig->pipeline->TrainContext(FleetContext(0), training.value(), 1));
  for (size_t f = 0; f < faults.size(); ++f) {
    Result<telemetry::RunTrace> run =
        core::SimulateFaultRun(kWordCount, faults[f], DeriveSeed(seed, 2, f));
    if (!run.ok()) return run.status();
    INVARNETX_RETURN_IF_ERROR(rig->pipeline->AddSignature(
        FleetContext(0), faults::FaultName(faults[f]), run.value(), 1));
  }
  rig->fleet = std::make_unique<serve::MonitorFleet>(
      rig->pipeline.get(), FleetSettings(kThreads, kMonitors));
  for (int i = 0; i < kMonitors; ++i) {
    Result<serve::MonitorHandle> handle = rig->fleet->StartJob(FleetContext(i));
    if (!handle.ok()) return handle.status();
    rig->handles.push_back(handle.value());
  }
  return rig;
}

struct Latched {
  int monitor = 0;
  int job = 0;
  int first_alarm_tick = -1;
  Clock::time_point due;
};

struct Delivered {
  serve::FleetDiagnosis diagnosis;
  Clock::time_point arrival;
};

bool SameVerdict(const core::DiagnosisReport& a, const core::DiagnosisReport& b,
                 std::string* why) {
  if (a.violations != b.violations) {
    *why = "violation tuple";
    return false;
  }
  const std::string top_a = a.causes.empty() ? "" : a.causes[0].problem;
  const std::string top_b = b.causes.empty() ? "" : b.causes[0].problem;
  if (top_a != top_b) {
    *why = "top cause " + top_a + " vs " + top_b;
    return false;
  }
  if (a.suspects.size() != b.suspects.size()) {
    *why = "suspect count";
    return false;
  }
  for (size_t i = 0; i < a.suspects.size(); ++i) {
    if (a.suspects[i].metric != b.suspects[i].metric ||
        a.suspects[i].score != b.suspects[i].score) {
      *why = "suspect " + std::to_string(i);
      return false;
    }
  }
  return true;
}

// The layer-split recompute of one verdict on a cold score cache: the
// whole InferCauseForModel call, then its steps one by one.
void TraceVerdictLayers(const core::InvarNetX& cold,
                        const core::ContextModel& model,
                        const telemetry::NodeTrace& window,
                        const std::string& id, Tracer& tracer,
                        Result<core::DiagnosisReport>* report) {
  const core::InvarNetXConfig& config = cold.config();
  {
    ScopedSpan span(tracer, "core.infer_cause", id);
    *report = cold.InferCauseForModel(model, window);
  }
  const std::unique_ptr<core::AssociationEngine> engine =
      core::AssociationEngine::Make(config.engine);
  core::AssociationOptions options;
  options.num_threads = kThreads;
  options.use_cache = false;
  ScopedSpan steps(tracer, "core.infer_steps", id);
  Result<core::AssociationMatrix> matrix = Status::Internal("unset");
  {
    ScopedSpan span(tracer, "core.assoc_matrix", id);
    matrix = core::ComputeAssociationMatrix(window, *engine, options);
  }
  if (!matrix.ok()) return;
  std::vector<double> deviations;
  Result<std::vector<uint8_t>> tuple = Status::Internal("unset");
  {
    ScopedSpan span(tracer, "core.violation_tuple", id);
    tuple = core::ComputeViolationTuple(model.invariants, matrix.value(),
                                        config.epsilon, &deviations);
  }
  if (!tuple.ok()) return;
  {
    ScopedSpan span(tracer, "core.sigdb_query", id);
    (void)model.sigdb.Query(tuple.value(), config.similarity, config.top_k);
  }
  ScopedSpan span(tracer, "causal.rank", id);
  Result<causal::InvariantGraph> graph = causal::BuildInvariantGraph(
      model.invariants.present, model.invariants.values, tuple.value(),
      deviations);
  if (graph.ok()) {
    causal::RankingOptions ranking;
    ranking.iterations = config.causal_iterations;
    ranking.damping = config.causal_damping;
    ranking.top_k = config.causal_top_k;
    (void)causal::RankSuspects(graph.value(), ranking);
  }
}

}  // namespace

Outcome RunIncidentBurst(const RunArgs& args, Tracer& tracer) {
  Outcome outcome;
  const std::vector<faults::FaultType> faults = WordCountFaults();
  outcome.Config("monitors", kMonitors);
  outcome.Config("faulty_per_job", kFaultyPerJob);
  outcome.Config("faults_rotated", faults.size());
  outcome.Config("tick_rate_per_s", kTicksPerSecond);
  outcome.Config("window_ticks", kWindowTicks);
  outcome.Config("fleet_threads", kThreads);
  outcome.Config("fleet_shards", kShards);
  outcome.Config("pipeline_threads", kThreads);
  outcome.Config("model", "global (use_operation_context=false) + 1 "
                          "signature per fault");
  outcome.Config("load", "open loop, in-process IngestTick");

  std::vector<double> setup_seconds;
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    rig.reset();
    core::AssociationScoreCache::Shared().Clear();
    const Clock::time_point start = Clock::now();
    Result<std::unique_ptr<Rig>> built = BuildRig(args.seed, faults);
    setup_seconds.push_back(SecondsBetween(start, Clock::now()));
    if (!built.ok()) {
      outcome.Fail("set-up: " + built.status().ToString());
      outcome.correct = false;
      return outcome;
    }
    rig = std::move(built.value());
  }
  const double setup_s = MedianSeconds(setup_seconds);

  // Job inputs for the whole timed phase, generated up front so the open
  // loop's slack is never spent simulating.
  const Clock::time_point inputs_start = Clock::now();
  std::vector<JobInputs> jobs;
  const size_t planned_ticks =
      static_cast<size_t>(args.seconds * kTicksPerSecond) + 1;
  for (size_t total = 0; total < planned_ticks;) {
    Result<JobInputs> job =
        MakeJob(args.seed, static_cast<int>(jobs.size()), faults);
    if (!job.ok()) {
      outcome.Fail("job inputs: " + job.status().ToString());
      outcome.correct = false;
      return outcome;
    }
    total += job.value().ticks;
    jobs.push_back(std::move(job.value()));
  }
  const double inputs_s = SecondsBetween(inputs_start, Clock::now());

  std::unordered_map<std::string, int> monitor_of;
  for (int i = 0; i < kMonitors; ++i) monitor_of[FleetContext(i).node_ip] = i;
  std::vector<serve::TickSample> batch(kMonitors);
  for (int i = 0; i < kMonitors; ++i) {
    batch[static_cast<size_t>(i)].monitor =
        rig->handles[static_cast<size_t>(i)];
  }

  std::vector<double> tick_latency, ingest_seconds, lateness, rearm_seconds;
  std::vector<Latched> latched;
  std::vector<Delivered> delivered;
  uint64_t samples = 0, rejected = 0, new_alarms = 0;
  size_t backlog_max = 0;
  auto poll = [&] {
    std::vector<serve::FleetDiagnosis> done = rig->fleet->TakeDiagnoses();
    const Clock::time_point now = Clock::now();
    for (serve::FleetDiagnosis& d : done) {
      delivered.push_back({std::move(d), now});
    }
  };

  // Traced runs also ingest every batch into a threads=1 twin, after the
  // fleet's call returns, for the serial baseline on the same batches.
  std::unique_ptr<serve::MonitorFleet> serial_twin;
  if (tracer.enabled()) {
    serial_twin = std::make_unique<serve::MonitorFleet>(
        rig->pipeline.get(), FleetSettings(1, kMonitors));
  }

  // One untimed warm-up job first (its own inputs), so first-touch page
  // faults and pool start-up are not charged to the timed ticks.
  {
    Result<JobInputs> warm = MakeJob(DeriveSeed(args.seed, 9), 0, faults);
    if (!warm.ok()) {
      outcome.Fail("warm-up inputs: " + warm.status().ToString());
      outcome.correct = false;
      return outcome;
    }
    for (size_t t = 0; t < warm.value().ticks; ++t) {
      for (int i = 0; i < kMonitors; ++i) {
        FillSample(*warm.value().replay[static_cast<size_t>(i)], t,
                   &batch[static_cast<size_t>(i)]);
      }
      if (!rig->fleet->IngestTick(batch).ok()) outcome.Fail("warm-up tick");
    }
    rig->fleet->WaitForDiagnoses();
    (void)rig->fleet->TakeDiagnoses();
  }

  PhaseCounters counters;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kTicksPerSecond));
  const Clock::time_point timed_start = Clock::now();
  size_t global_tick = 0;
  size_t jobs_run = 0;
  for (size_t j = 0; j < jobs.size() && global_tick < planned_ticks; ++j) {
    const JobInputs& in = jobs[j];
    const std::string job_id = std::to_string(j);
    if (serial_twin != nullptr) {
      for (int i = 0; i < kMonitors; ++i) {
        if (!serial_twin->StartJob(FleetContext(i)).ok()) {
          outcome.Fail("serial twin StartJob");
        }
      }
    }
    {
      ScopedSpan span(tracer, "serve.rearm", job_id);
      const Clock::time_point start = Clock::now();
      for (int i = 0; i < kMonitors; ++i) {
        if (!rig->fleet->StartJob(FleetContext(i)).ok()) {
          outcome.Fail("StartJob");
        }
      }
      rearm_seconds.push_back(SecondsBetween(start, Clock::now()));
    }
    // Due times restart after each job's re-arm: the gap between jobs is
    // the re-arm itself (timed as serve.rearm), so it is never charged to
    // ticks and no tick's latency depends on whether a re-arm fits in one
    // period.
    const Clock::time_point origin = Clock::now() + period;
    for (size_t t = 0; t < in.ticks; ++t, ++global_tick) {
      for (int i = 0; i < kMonitors; ++i) {
        FillSample(*in.replay[static_cast<size_t>(i)], t,
                   &batch[static_cast<size_t>(i)]);
      }
      const Clock::time_point due = origin + period * static_cast<int64_t>(t);
      // Sleep-poll until just before the due time, then spin: a sleeping
      // generator would charge its own wake-up latency to the tick.
      const Clock::time_point wake = due - kSpinBeforeDue;
      while (Clock::now() < wake) {
        poll();
        std::this_thread::sleep_until(
            std::min(wake, Clock::now() + std::chrono::milliseconds(1)));
      }
      while (Clock::now() < due) {
      }
      const std::string tick_id = job_id + "/" + std::to_string(t);
      ++outcome.attempted;
      const Clock::time_point start = Clock::now();
      Result<serve::TickSummary> summary = Status::Internal("unset");
      {
        ScopedSpan span(tracer, "serve.ingest_tick", tick_id);
        summary = rig->fleet->IngestTick(batch);
      }
      const Clock::time_point end = Clock::now();
      lateness.push_back(SecondsBetween(due, start));
      tick_latency.push_back(SecondsBetween(due, end));
      ingest_seconds.push_back(SecondsBetween(start, end));
      if (!summary.ok()) {
        outcome.Fail("IngestTick: " + summary.status().ToString());
        continue;
      }
      samples += static_cast<uint64_t>(summary.value().samples);
      rejected += static_cast<uint64_t>(summary.value().rejected);
      new_alarms += static_cast<uint64_t>(summary.value().new_alarms);
      if (summary.value().samples != kMonitors || summary.value().rejected) {
        outcome.Fail("IngestTick accepted " +
                     std::to_string(summary.value().samples));
      }
      backlog_max = std::max(backlog_max, rig->fleet->pending_diagnoses());
      if (serial_twin != nullptr) {
        ScopedSpan span(tracer, "serve.ingest_tick_serial", tick_id);
        if (!serial_twin->IngestTick(batch).ok()) {
          outcome.Fail("serial twin IngestTick");
        }
      }
    }
    // The job's latched alarms, read before the next re-arm clears them.
    for (int i = 0; i < kMonitors; ++i) {
      std::optional<serve::MonitorView> view =
          rig->fleet->View(rig->handles[static_cast<size_t>(i)]);
      if (!view.has_value() || !view->alarm_active) continue;
      latched.push_back(
          {i, static_cast<int>(j), view->first_alarm_tick,
           origin + period * static_cast<int64_t>(view->first_alarm_tick)});
    }
    ++jobs_run;
  }
  // Every latched alarm's verdict, still polled so arrival times are real.
  const Clock::time_point drain_start = Clock::now();
  while (delivered.size() < latched.size() &&
         SecondsBetween(drain_start, Clock::now()) < kDrainTimeoutSeconds) {
    poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double timed_seconds = SecondsBetween(timed_start, Clock::now());
  const size_t timed_spans = tracer.size();
  rig->fleet->WaitForDiagnoses();
  poll();
  counters.Finish(timed_seconds, &outcome);

  // Pair latched alarms with verdicts, per monitor in order.
  std::vector<std::vector<const Latched*>> alarms_of(kMonitors);
  for (const Latched& l : latched) {
    alarms_of[static_cast<size_t>(l.monitor)].push_back(&l);
  }
  std::vector<std::vector<const Delivered*>> verdicts_of(kMonitors);
  for (const Delivered& d : delivered) {
    auto it = monitor_of.find(d.diagnosis.context.node_ip);
    if (it == monitor_of.end()) {
      outcome.Fail("verdict for an unknown monitor");
      continue;
    }
    verdicts_of[static_cast<size_t>(it->second)].push_back(&d);
  }
  std::vector<double> verdict_latency;
  size_t fallbacks = 0, verdicts_checked = 0;
  core::InvarNetXConfig cold_config = PipelineConfig();
  cold_config.use_association_cache = false;
  const core::InvarNetX cold(cold_config);
  std::shared_ptr<const core::ContextModel> model =
      rig->pipeline->GetContext(FleetContext(0)).value();
  for (int i = 0; i < kMonitors; ++i) {
    const auto& alarms = alarms_of[static_cast<size_t>(i)];
    const auto& verdicts = verdicts_of[static_cast<size_t>(i)];
    outcome.attempted += alarms.size();
    if (verdicts.size() != alarms.size()) {
      outcome.Fail("monitor " + std::to_string(i) + ": " +
                   std::to_string(alarms.size()) + " alarms, " +
                   std::to_string(verdicts.size()) + " verdicts");
    }
    for (size_t k = 0; k < std::min(alarms.size(), verdicts.size()); ++k) {
      const Latched& alarm = *alarms[k];
      const serve::FleetDiagnosis& d = verdicts[k]->diagnosis;
      if (d.first_alarm_tick != alarm.first_alarm_tick) {
        outcome.Fail("verdict tick mismatch");
        continue;
      }
      if (!d.status.ok()) {
        outcome.Fail("diagnosis: " + d.status.ToString());
        continue;
      }
      verdict_latency.push_back(
          SecondsBetween(alarm.due, verdicts[k]->arrival));
      if (d.report.used_causal_fallback) ++fallbacks;
      // Recompute the verdict, outside the timed phase, on the window the
      // benchmark fed: ticks [0, first_alarm_tick] of the replayed trace,
      // capped at the window capacity.
      const telemetry::NodeTrace& trace =
          *jobs[static_cast<size_t>(alarm.job)].replay[static_cast<size_t>(i)];
      const size_t end = static_cast<size_t>(alarm.first_alarm_tick) + 1;
      const size_t begin = end > kWindowTicks ? end - kWindowTicks : 0;
      telemetry::NodeTrace window = SliceNode(trace, begin, end);
      window.ip = d.context.node_ip;
      Result<core::DiagnosisReport> again = Status::Internal("unset");
      if (tracer.enabled() && verdicts_checked < kTracedVerdicts) {
        ScopedSpan span(tracer, "verdict",
                        "verdict/" + std::to_string(verdicts_checked));
        TraceVerdictLayers(cold, *model, window,
                           "verdict/" + std::to_string(verdicts_checked),
                           tracer, &again);
      } else {
        again = rig->pipeline->InferCauseForModel(*model, window);
      }
      ++verdicts_checked;
      std::string why;
      if (!again.ok()) {
        outcome.Fail("recompute: " + again.status().ToString());
      } else if (!SameVerdict(d.report, again.value(), &why)) {
        outcome.correct = false;
        outcome.Fail("verdict differs from recompute: " + why);
      }
    }
  }

  // Service rate of the median IngestTick call (the open loop fixes the
  // offered rate, so the mean would mostly count stalls twice).
  const double call_p50 = Percentile(ingest_seconds, 0.5);
  const double samples_per_s = call_p50 > 0 ? kMonitors / call_p50 : 0.0;
  const Summary ticks = Summarize(tick_latency);
  const double tick_p90 = Percentile(tick_latency, 0.90);
  const double tick_p95 = NamedPercentile(tick_latency, 0.95, "tick_p95_ms");
  const double tick_p99 = NamedPercentile(tick_latency, 0.99, "tick_p99_ms");
  const double verdict_p50 = Percentile(verdict_latency, 0.5);
  const double verdict_p95 =
      NamedPercentile(verdict_latency, 0.95, "verdict_p95_s");
  outcome.e2e["setup_s"] = {setup_s, "s"};
  outcome.e2e["throughput_per_s"] = {samples_per_s, "1/s"};
  outcome.e2e["op_p50_ms"] = {ticks.p50 * 1e3, "ms"};
  // The gated tail is p90: on a shared host the p99 of a run is set by a
  // handful of scheduler stalls, and even the p95 moved by ~22% between
  // runs, close to the largest bound the benchmark may set.
  outcome.e2e["op_tail_ms"] = {tick_p90 * 1e3, "ms"};
  outcome.e2e["answer_p50_ms"] = {verdict_p50 * 1e3, "ms"};

  outcome.Figure("setup_s", setup_s, "s", setup_seconds.size());
  outcome.Figure("job_inputs_s", inputs_s, "s", jobs.size());
  outcome.Figure("samples_per_s", samples_per_s, "1/s", ingest_seconds.size());
  outcome.Figure("tick_p90_ms", tick_p90 * 1e3, "ms", ticks.count);
  outcome.Figure("tick_p95_ms", tick_p95 * 1e3, "ms", ticks.count);
  outcome.Figure("tick_p99_ms", tick_p99 * 1e3, "ms", ticks.count);
  outcome.Timing("tick", tick_latency);
  outcome.Figure("ingest_call_p50_ms", call_p50 * 1e3, "ms",
                 ingest_seconds.size());
  outcome.Figure("generator_late_p50_ms", Percentile(lateness, 0.5) * 1e3,
                 "ms", lateness.size());
  outcome.Figure("generator_late_p99_ms", Percentile(lateness, 0.99) * 1e3,
                 "ms", lateness.size());
  outcome.Figure("verdict_p50_s", verdict_p50, "s", verdict_latency.size());
  outcome.Figure("verdict_p95_s", verdict_p95, "s", verdict_latency.size());
  outcome.Timing("verdict", verdict_latency);
  outcome.Figure("rearm_p50_ms", Percentile(rearm_seconds, 0.5) * 1e3, "ms",
                 rearm_seconds.size());
  outcome.Figure("jobs", static_cast<double>(jobs_run), "count", jobs_run);

  outcome.layers["serve.samples_rejected"] = {static_cast<double>(rejected),
                                              "count"};
  outcome.layers["serve.alarms"] = {static_cast<double>(new_alarms), "count"};
  outcome.layers["serve.verdicts"] = {static_cast<double>(delivered.size()),
                                      "count"};
  outcome.layers["serve.diagnosis_backlog_max"] = {
      static_cast<double>(backlog_max), "count"};
  outcome.layers["core.causal_fallback_share"] = {
      verdicts_checked > 0 ? static_cast<double>(fallbacks) /
                                 static_cast<double>(verdicts_checked)
                           : 0.0,
      "share"};
  if (tracer.enabled()) {
    ProbeInputs probe;
    probe.pipeline = rig->pipeline.get();
    probe.context = FleetContext(0);
    probe.runs = jobs.back().pool;
    probe.seed = args.seed;
    ProbeMissingLayers(probe, tracer, &outcome);
    FinishLayers(tracer, timed_seconds, timed_spans, samples_per_s, &outcome);
  }
  rig.reset();
  outcome.e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  return outcome;
}

}  // namespace invarnetx::perfbench
