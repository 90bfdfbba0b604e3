#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "stats.h"

namespace invarnetx::perfbench {
namespace {

// Open spans of the calling thread, innermost last, tagged with their
// tracer so a scratch tracer never adopts another tracer's parent.
thread_local std::vector<std::pair<const Tracer*, int>> open_spans;

int ThreadNumber() {
  static std::atomic<int> next{0};
  thread_local const int number = next.fetch_add(1);
  return number;
}

int InnermostOpen(const Tracer* tracer) {
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == tracer) return it->second;
  }
  return -1;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const std::string& name, std::string request) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = name;
  span.request = std::move(request);
  span.parent = InnermostOpen(this);
  span.thread = ThreadNumber();
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int>(spans_.size());
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
  }
  open_spans.emplace_back(this, index);
  return index;
}

void Tracer::End(int index) {
  if (index < 0) return;
  const int64_t now = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end_ns = now;
  }
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this && it->second == index) {
      open_spans.erase(std::next(it).base());
      break;
    }
  }
}

void Tracer::Record(const std::string& name, std::string request,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end) {
  if (!enabled_) return;
  SpanRecord span;
  span.name = name;
  span.request = std::move(request);
  span.parent = InnermostOpen(this);
  span.thread = ThreadNumber();
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

size_t Tracer::CountOf(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const SpanRecord& span : spans_) {
    if (span.name == name && span.end_ns >= 0) ++count;
  }
  return count;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name && span.end_ns >= 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e9);
    }
  }
  return out;
}

std::map<std::string, LayerStats> Tracer::Layers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0 && span.end_ns >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, std::vector<double>> selfs;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (span.end_ns < 0) continue;
    const double ns = static_cast<double>(span.end_ns - span.start_ns);
    durations[span.name].push_back(ns / 1e9);
    selfs[span.name].push_back(std::max(0.0, ns - child_ns[i]) / 1e9);
  }
  std::map<std::string, LayerStats> layers;
  for (const auto& [name, values] : durations) {
    LayerStats& stats = layers[name];
    stats.count = values.size();
    stats.p50_s = Percentile(values, 0.5);
    stats.p99_s = Percentile(values, 0.99);
    const std::vector<double>& self = selfs[name];
    stats.self_p50_s = Percentile(self, 0.5);
    for (double s : self) stats.self_total_s += s;
  }
  return layers;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IoError("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(out, "{\"traceEvents\":[\n");
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (span.end_ns < 0) continue;
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":\"%s\"}}",
                 first ? "" : ",\n", JsonEscape(span.name).c_str(),
                 span.thread, static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                 span.parent, JsonEscape(span.request).c_str());
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  const bool ok = std::fclose(out) == 0;
  return ok ? Status::Ok() : Status::IoError("cannot write " + path);
}

double Tracer::SpanCostSeconds() {
  constexpr int kSpans = 20000;
  Tracer scratch(true);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(scratch, "cost", "probe");
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / kSpans;
}

}  // namespace invarnetx::perfbench
