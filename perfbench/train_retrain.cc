// train-retrain: the offline stage that writes the models the fleets read.
//
// Every round runs on fresh seeds: simulate 11 normal runs for each of
// wordcount, sort, grep, bayes and tpcds; cold TrainContext the 4 slave
// contexts of each workload on the first 10 runs (20 contexts); AddSignature
// one run per applicable fault at each workload's victim context; then
// retrain every context on the window slid by one run, which leans on the
// content-addressed score cache and the incremental priors.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>

#include "core/assoc_cache.h"
#include "core/evaluate.h"
#include "faults/fault.h"
#include "stats.h"
#include "workloads.h"

namespace invarnetx::perfbench {
namespace {

constexpr int kRunsPerWorkload = 11;  // train on 10, retrain slid by one
constexpr size_t kVictimNode = 1;

const workload::WorkloadType kWorkloads[] = {
    workload::WorkloadType::kWordCount, workload::WorkloadType::kSort,
    workload::WorkloadType::kGrep, workload::WorkloadType::kBayes,
    workload::WorkloadType::kTpcDs};

struct WorkloadInputs {
  workload::WorkloadType type = workload::WorkloadType::kWordCount;
  std::vector<telemetry::RunTrace> normal;  // kRunsPerWorkload runs
  std::vector<std::pair<std::string, telemetry::RunTrace>> faulty;
};

using RoundInputs = std::vector<WorkloadInputs>;

Result<RoundInputs> MakeRound(uint64_t seed, int round) {
  RoundInputs inputs;
  for (size_t w = 0; w < std::size(kWorkloads); ++w) {
    WorkloadInputs in;
    in.type = kWorkloads[w];
    const uint64_t base = DeriveSeed(seed, static_cast<uint64_t>(round), w);
    Result<std::vector<telemetry::RunTrace>> normal =
        core::SimulateNormalRuns(in.type, kRunsPerWorkload, base);
    if (!normal.ok()) return normal.status();
    in.normal = std::move(normal.value());
    for (faults::FaultType fault : faults::AllFaults()) {
      if (!faults::AppliesTo(fault, in.type)) continue;
      Result<telemetry::RunTrace> run = core::SimulateFaultRun(
          in.type, fault,
          DeriveSeed(base, 1000 + static_cast<uint64_t>(fault)));
      if (!run.ok()) return run.status();
      in.faulty.emplace_back(faults::FaultName(fault), std::move(run.value()));
    }
    inputs.push_back(std::move(in));
  }
  return inputs;
}

core::OperationContext ContextOf(const WorkloadInputs& in, size_t node) {
  return core::OperationContext{in.type, in.normal[0].nodes[node].ip};
}

// One round's timings (seconds), per call kind.
struct RoundTimes {
  std::vector<double> train, signature, retrain;
  uint64_t pairs_rescored = 0;
  uint64_t pairs_reused = 0;

  double TrainSeconds() const {
    double s = 0.0;
    for (double v : train) s += v;
    for (double v : signature) s += v;
    return s;
  }
  double RetrainSeconds() const {
    double s = 0.0;
    for (double v : retrain) s += v;
    return s;
  }
};

// Cold train, signatures, slid retrain of one round into `pipeline`.
RoundTimes RunRound(const RoundInputs& inputs, core::InvarNetX* pipeline,
                    const std::string& round_id, Tracer& tracer,
                    Outcome* outcome) {
  RoundTimes times;
  auto timed = [&](const char* span_name, std::vector<double>* into,
                   const std::string& what, auto&& call) {
    ++outcome->attempted;
    const Clock::time_point start = Clock::now();
    Status status = Status::Ok();
    {
      ScopedSpan span(tracer, span_name, round_id);
      status = call();
    }
    into->push_back(SecondsBetween(start, Clock::now()));
    if (!status.ok()) outcome->Fail(what + ": " + status.ToString());
  };
  for (const WorkloadInputs& in : inputs) {
    const std::vector<telemetry::RunTrace> first(in.normal.begin(),
                                                 in.normal.end() - 1);
    for (size_t node = 1; node < in.normal[0].nodes.size(); ++node) {
      const core::OperationContext context = ContextOf(in, node);
      timed("core.train_context", &times.train, "TrainContext " +
            context.ToString(), [&] {
              return pipeline->TrainContext(context, first, node);
            });
    }
  }
  for (const WorkloadInputs& in : inputs) {
    const core::OperationContext victim = ContextOf(in, kVictimNode);
    for (const auto& [problem, run] : in.faulty) {
      timed("core.add_signature", &times.signature,
            "AddSignature " + problem, [&] {
              return pipeline->AddSignature(victim, problem, run, kVictimNode);
            });
    }
  }
  const uint64_t rescored = CounterValue("pipeline.pairs_rescored");
  const uint64_t reused = CounterValue("pipeline.pairs_reused");
  for (const WorkloadInputs& in : inputs) {
    const std::vector<telemetry::RunTrace> slid(in.normal.begin() + 1,
                                                in.normal.end());
    for (size_t node = 1; node < in.normal[0].nodes.size(); ++node) {
      const core::OperationContext context = ContextOf(in, node);
      timed("core.retrain_context", &times.retrain,
            "retrain " + context.ToString(), [&] {
              return pipeline->TrainContext(context, slid, node);
            });
    }
  }
  times.pairs_rescored = CounterValue("pipeline.pairs_rescored") - rescored;
  times.pairs_reused = CounterValue("pipeline.pairs_reused") - reused;
  return times;
}

core::InvarNetXConfig TrainConfig(int threads, bool cache) {
  core::InvarNetXConfig config;
  config.num_threads = threads;
  config.use_association_cache = cache;
  return config;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Saves the store into `dir` (created if needed).
Status SaveStore(const core::InvarNetX& pipeline, const std::string& dir) {
  ::mkdir(dir.c_str(), 0755);
  return pipeline.SaveToDirectory(dir);
}

}  // namespace

Outcome RunTrainRetrain(const RunArgs& args, Tracer& tracer) {
  Outcome outcome;
  outcome.Config("workloads", "wordcount,sort,grep,bayes,tpcds");
  outcome.Config("runs_per_workload", kRunsPerWorkload);
  outcome.Config("contexts", 20);
  outcome.Config("pipeline_threads", kThreads);
  outcome.Config("assoc_cache", "on, emptied before each round");
  outcome.Config("reference", "round 0 at num_threads=1, cold score cache");

  // Set-up: the first round's inputs, several times.
  std::vector<double> setup_seconds;
  Result<RoundInputs> first = Status::Internal("unset");
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point start = Clock::now();
    first = MakeRound(args.seed, 0);
    setup_seconds.push_back(SecondsBetween(start, Clock::now()));
    if (!first.ok()) {
      outcome.Fail("set-up: " + first.status().ToString());
      outcome.correct = false;
      return outcome;
    }
  }
  const double setup_s = MedianSeconds(setup_seconds);
  const RoundInputs round0 = std::move(first.value());

  PhaseCounters counters;
  std::vector<double> train_s, retrain_s, round_s, calls;
  uint64_t rescored = 0, reused = 0;
  std::unique_ptr<core::InvarNetX> pipeline;
  const std::string store_dir = args.out_dir + "/train-retrain-store";
  const Clock::time_point timed_start = Clock::now();
  double busy = 0.0;
  size_t builds = 0;
  for (int round = 0; SecondsBetween(timed_start, Clock::now()) < args.seconds;
       ++round) {
    RoundInputs later;
    if (round > 0) {
      Result<RoundInputs> made = MakeRound(args.seed, round);
      if (!made.ok()) {
        outcome.Fail("round inputs: " + made.status().ToString());
        break;
      }
      later = std::move(made.value());
    }
    const RoundInputs& inputs = round == 0 ? round0 : later;
    // Every round starts from an empty score cache, like a fresh trainer.
    core::AssociationScoreCache::Shared().Clear();
    pipeline = std::make_unique<core::InvarNetX>(TrainConfig(kThreads, true));
    const RoundTimes times = RunRound(inputs, pipeline.get(),
                                      "round/" + std::to_string(round),
                                      tracer, &outcome);
    train_s.push_back(times.TrainSeconds());
    retrain_s.push_back(times.RetrainSeconds());
    round_s.push_back(times.TrainSeconds() + times.RetrainSeconds());
    busy += times.TrainSeconds() + times.RetrainSeconds();
    builds += times.train.size() + times.signature.size() +
              times.retrain.size();
    for (const auto* v : {&times.train, &times.signature, &times.retrain}) {
      calls.insert(calls.end(), v->begin(), v->end());
    }
    rescored += times.pairs_rescored;
    reused += times.pairs_reused;
    if (round == 0) {
      const Status saved = SaveStore(*pipeline, store_dir);
      if (!saved.ok()) outcome.Fail("SaveToDirectory: " + saved.ToString());
    }
  }
  const double timed_seconds = SecondsBetween(timed_start, Clock::now());
  const size_t timed_spans = tracer.size();
  counters.Finish(timed_seconds, &outcome);

  // Correctness, outside the timed phase: round 0 trained again with
  // num_threads=1 (from an emptied score cache, so no score is shared with
  // the timed rounds) must save byte-identical store files.
  {
    Tracer off(false);
    Outcome scratch;
    core::AssociationScoreCache::Shared().Clear();
    core::InvarNetX reference(TrainConfig(1, true));
    (void)RunRound(round0, &reference, "reference", off, &scratch);
    const std::string reference_dir = store_dir + "-reference";
    const Status saved = SaveStore(reference, reference_dir);
    if (!saved.ok() || scratch.failed > 0) {
      outcome.Fail("reference training failed");
      outcome.correct = false;
    }
    for (const char* file :
         {"models.xml", "invariants.xml", "signatures.xml"}) {
      const std::string a = ReadFile(store_dir + "/" + file);
      const std::string b = ReadFile(reference_dir + "/" + file);
      if (a.empty() || a != b) {
        outcome.correct = false;
        outcome.Fail(std::string("store file differs from the serial "
                                 "reference: ") + file);
      }
    }
  }

  const double throughput =
      busy > 0 ? static_cast<double>(builds) / busy : 0.0;
  const double train_p50 = Percentile(train_s, 0.5);
  const double retrain_p50 = Percentile(retrain_s, 0.5);
  // The unit operation is one model build (TrainContext or AddSignature);
  // its p95 sits among the cold trains of the larger contexts.
  const double call_p95 = NamedPercentile(calls, 0.95, "build_call_p95_ms");
  outcome.e2e["setup_s"] = {setup_s, "s"};
  outcome.e2e["throughput_per_s"] = {throughput, "1/s"};
  outcome.e2e["op_p50_ms"] = {Percentile(calls, 0.5) * 1e3, "ms"};
  outcome.e2e["op_tail_ms"] = {call_p95 * 1e3, "ms"};
  // The answer of a round is the complete model set: cold trains,
  // signatures and the slid retrain (the retrain alone is under a second
  // and moved by ~25% between runs on a shared host).
  outcome.e2e["answer_p50_ms"] = {Percentile(round_s, 0.5) * 1e3, "ms"};

  outcome.Figure("setup_s", setup_s, "s", setup_seconds.size());
  outcome.Figure("train_s", train_p50, "s", train_s.size());
  outcome.Figure("retrain_s", retrain_p50, "s", retrain_s.size());
  outcome.Figure("model_builds_per_s", throughput, "1/s", builds);
  outcome.Figure("build_call_p95_ms", call_p95 * 1e3, "ms", calls.size());
  outcome.Timing("build_call", calls);
  outcome.layers["core.pairs_rescored"] = {static_cast<double>(rescored),
                                           "count"};
  outcome.layers["core.pairs_reused"] = {static_cast<double>(reused), "count"};
  if (tracer.enabled()) {
    ProbeInputs probe;
    probe.pipeline = pipeline.get();
    probe.context = ContextOf(round0[0], kVictimNode);
    for (const WorkloadInputs& in : round0) {
      for (size_t node = 1; node < in.normal[0].nodes.size(); ++node) {
        probe.fleet_contexts.push_back(ContextOf(in, node));
      }
    }
    probe.runs = round0[0].normal;
    probe.seed = args.seed;
    ProbeMissingLayers(probe, tracer, &outcome);
    FinishLayers(tracer, timed_seconds, timed_spans, throughput, &outcome);
  }
  pipeline.reset();
  outcome.e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  return outcome;
}

}  // namespace invarnetx::perfbench
