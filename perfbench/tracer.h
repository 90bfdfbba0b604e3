#ifndef INVARNETX_PERFBENCH_TRACER_H_
#define INVARNETX_PERFBENCH_TRACER_H_

// Bench-side span recorder for the traced mode. Spans are taken around the
// benchmark's own calls into each layer (the program itself is not
// instrumented), kept in memory, and written out once at exit. A disabled
// tracer records nothing and costs one branch per span.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace invarnetx::perfbench {

struct SpanRecord {
  std::string name;
  std::string request;  // "job/tick", "verdict/N", "probe", ...
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1 while open
  int parent = -1;      // index of the enclosing span on the same thread
  int thread = 0;
};

// Per-layer aggregate of every span with one name.
struct LayerStats {
  size_t count = 0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double self_p50_s = 0.0;  // span minus its direct child spans
  double self_total_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Opens a span nested in the calling thread's innermost open span;
  // returns its index, or -1 when disabled.
  int Begin(const std::string& name, std::string request);
  void End(int index);
  // Records an already-measured interval (e.g. a round trip the caller
  // timed itself) as a child of the calling thread's innermost open span.
  void Record(const std::string& name, std::string request,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end);

  size_t size() const;
  size_t CountOf(const std::string& name) const;
  // Durations (seconds) of every closed span with this name.
  std::vector<double> Durations(const std::string& name) const;
  std::map<std::string, LayerStats> Layers() const;

  // Chrome trace-event JSON ("X" events; request and parent in args).
  Status WriteChromeTrace(const std::string& path) const;

  // Measured cost of one Begin/End pair on this machine, in seconds.
  static double SpanCostSeconds();

 private:
  int64_t NowNs() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

// RAII span; inert when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::string request)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.Begin(name, std::move(request))
                                : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_.End(index_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const int index_;
};

}  // namespace invarnetx::perfbench

#endif  // INVARNETX_PERFBENCH_TRACER_H_
