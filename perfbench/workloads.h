#ifndef INVARNETX_PERFBENCH_WORKLOADS_H_
#define INVARNETX_PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "tracer.h"

namespace invarnetx::perfbench {

// Closed-loop ingest of a healthy 20k-monitor fleet over one loopback
// binary-dialect connection, with a /metrics scraper on a second one.
Outcome RunIngestSteady(const RunArgs& args, Tracer& tracer);

// Open-loop in-process ingest of an 8k-monitor fleet at a fixed tick rate
// while ~2% of monitors replay fault runs, so diagnosis does the work.
Outcome RunIncidentBurst(const RunArgs& args, Tracer& tracer);

// Offline rounds: cold training of 20 contexts, ~71 signatures, and a
// slid-window retrain, every round on fresh seeds.
Outcome RunTrainRetrain(const RunArgs& args, Tracer& tracer);

}  // namespace invarnetx::perfbench

#endif  // INVARNETX_PERFBENCH_WORKLOADS_H_
