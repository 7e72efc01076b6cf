#include "trace.hpp"

#include <stdexcept>

namespace perfbench {

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::begin(std::string name, int point) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.point = point < 0 && s.parent >= 0
                ? spans_[static_cast<std::size_t>(s.parent)].point
                : point;
  s.pass = pass_;
  s.startUs = nowUs();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer: spans must close in LIFO order");
  }
  spans_[static_cast<std::size_t>(id)].endUs = nowUs();
  open_.pop_back();
}

double Tracer::totalS(const std::string& name, int pass) const {
  double us = 0.0;
  for (const Span& s : spans_) {
    if (s.pass == pass && s.name == name) us += s.endUs - s.startUs;
  }
  return us / 1e6;
}

std::map<std::string, LayerRow> Tracer::layerTable() const {
  std::vector<double> childUs(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      childUs[static_cast<std::size_t>(s.parent)] += s.endUs - s.startUs;
    }
  }
  std::map<std::string, LayerRow> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerRow& row = rows[s.name];
    const double dur = s.endUs - s.startUs;
    ++row.count;
    row.totalS += dur / 1e6;
    row.selfS += (dur - childUs[i]) / 1e6;
  }
  return rows;
}

namespace {

void writeJsonString(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', out);
    std::fputc(c, out);
  }
  std::fputc('"', out);
}

}  // namespace

void Tracer::writeChromeTrace(std::FILE* out) const {
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "{\"name\":");
    writeJsonString(out, s.name);
    // One track per traced pass keeps repeated passes side by side.
    std::fprintf(out,
                 ",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"point\":%d,\"pass\":%d}}%s\n",
                 s.pass + 1, s.startUs, s.endUs - s.startUs, i, s.parent,
                 s.point, s.pass, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
}

void Tracer::writeLayerTable(std::FILE* out) const {
  std::fprintf(out, "%-22s %7s %12s %12s\n", "span", "count", "total_s",
               "self_s");
  for (const auto& [name, row] : layerTable()) {
    std::fprintf(out, "%-22s %7ld %12.6f %12.6f\n", name.c_str(), row.count,
                 row.totalS, row.selfS);
  }
}

}  // namespace perfbench
