#pragma once
//
// In-memory span recorder for the traced benchmark run. Each span covers one
// call perfbench makes into a simulator layer; spans nest by call order, so
// a layer's self time is its duration minus the time its child spans cover.
// Spans stay in memory until the run ends and are then written as Chrome
// trace-event JSON (opens in Perfetto / chrome://tracing) and as a per-layer
// table.
//
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double startUs = 0.0;  // since the tracer was created
  double endUs = 0.0;
  int parent = -1;  // index into Tracer::spans(), -1 = root
  int point = -1;   // simulation point the span belongs to, -1 = none
  int pass = 0;     // traced pass the span was recorded in
};

struct LayerRow {
  long count = 0;
  double totalS = 0.0;
  double selfS = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  int begin(std::string name, int point);
  void end(int id);

  void setPass(int pass) { pass_ = pass; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Seconds spent in spans named `name` during traced pass `pass`.
  double totalS(const std::string& name, int pass) const;

  /// count / total / self time per span name over all passes.
  std::map<std::string, LayerRow> layerTable() const;

  void writeChromeTrace(std::FILE* out) const;
  void writeLayerTable(std::FILE* out) const;

 private:
  double nowUs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int pass_ = 0;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int point = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(std::move(name), point) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
