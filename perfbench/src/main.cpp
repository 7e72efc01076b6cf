// perfbench: the benchmark program for the ibadapt simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <sha>]
//
// --trace 0 repeats the workload through the public API for --seconds and
// reports the end-to-end metrics (medians over repeats). --trace 1 alternates
// an untraced pass, a traced pass that calls each layer itself, and a pass on
// the other shard count, and reports the per-layer metrics. Every point's
// outputs are checked either way. The last stdout line is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// A full record (host fingerprint, seed, per-repeat values and quartiles)
// and, for traced runs, a Chrome trace and a per-layer table are written to
// --out-dir. See perfbench/README.md.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

/// Seed reserved for confirming a claimed gain; see README.md.
constexpr int kHoldoutSeed = 1001;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string outDir = ".";
  std::string commit = "unknown";
};

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      haveWorkload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = std::stoi(val);
    } else if (key == "--out-dir") {
      a.outDir = val;
    } else if (key == "--commit") {
      a.commit = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!haveWorkload) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace 0|1");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;  // one per repeat (deterministic: one)
  std::string notApplicable;    // reason, empty when the layer applies
};

/// Checks made during a run: operations attempted, and what failed.
struct Checks {
  long attempted = 0;
  std::vector<std::string> failures;

  void point(const Point& pt, const PointOutcome& o, const std::string& where) {
    ++attempted;
    const auto f = pointFailures(pt, o);
    if (f.empty()) return;
    std::string msg = where + " " + pt.label + ":";
    for (const auto& s : f) msg += " " + s;
    failures.push_back(msg);
  }
  /// One point checked for health and against the reference outputs.
  void identity(const Point& pt, const PointOutcome& ref, const PointOutcome& o,
                const std::string& where) {
    const std::size_t before = failures.size();
    point(pt, o, where);
    const auto diff = deterministicDiff(ref, o);
    if (diff.empty() || failures.size() > before) {
      if (!diff.empty()) failures.back() += " (and differs from reference)";
      return;
    }
    std::string msg = where + " " + pt.label + ": differs from reference in";
    for (const auto& s : diff) msg += " " + s;
    failures.push_back(msg);
  }
};

std::vector<const Point*> flatPoints(const Workload& w) {
  std::vector<const Point*> pts;
  for (const FabricCase& c : w.cases) {
    for (const Point& pt : c.points) pts.push_back(&pt);
  }
  return pts;
}

void checkPass(const Workload& w, const std::vector<PointOutcome>& ref,
               const std::vector<PointOutcome>& got, const std::string& where,
               Checks& checks) {
  const auto pts = flatPoints(w);
  if (got.size() != pts.size() || ref.size() != pts.size()) {
    throw std::logic_error("pass returned the wrong number of points");
  }
  for (std::size_t i = 0; i < pts.size(); ++i) {
    checks.identity(*pts[i], ref[i], got[i], where);
  }
}

double sumOver(const std::vector<PointOutcome>& pts,
               const std::function<double(const PointOutcome&)>& f) {
  double s = 0.0;
  for (const PointOutcome& o : pts) s += f(o);
  return s;
}

double safeDiv(double a, double b) { return b != 0.0 ? a / b : 0.0; }

// ---- end-to-end run (--trace 0) -------------------------------------------

std::vector<Metric> endToEnd(const Workload& w, double seconds, Checks& checks,
                             int& passes) {
  // An untimed first pass meters the heap and warms the allocator; its
  // outputs are the reference every timed pass must reproduce.
  const PassResult metered = runApiPass(w, /*meterHeap=*/true);
  checkPass(w, metered.points, metered.points, "metered pass", checks);
  std::vector<PassResult> runs;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    runs.push_back(runApiPass(w));
    checkPass(w, metered.points, runs.back().points,
              "pass " + std::to_string(runs.size() - 1), checks);
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count() < seconds);
  passes = static_cast<int>(runs.size());

  Metric wall{"wall_s", "s", {}, {}};
  Metric setup{"setup_s", "s", {}, {}};
  Metric cpu{"cpu_s", "s", {}, {}};
  Metric eps{"events_per_s", "1/s", {}, {}};
  Metric heap{"peak_heap_mb", "MB", {metered.peakHeapMB}, {}};
  for (const PassResult& r : runs) {
    wall.samples.push_back(r.wallS);
    setup.samples.push_back(r.setupS);
    cpu.samples.push_back(r.cpuS);
    eps.samples.push_back(safeDiv(
        sumOver(r.points, [](const PointOutcome& o) { return double(o.events); }),
        r.runS));
  }
  const long failedPoints = static_cast<long>(checks.failures.size());
  Metric pass{"pass_frac", "frac", {}, {}};
  pass.samples.push_back(1.0 - safeDiv(static_cast<double>(failedPoints),
                                       static_cast<double>(checks.attempted)));
  // The sim_* metrics are deterministic for a seed (checked above), so the
  // first pass stands for all.
  const auto& pts = runs.front().points;
  Metric accepted{"sim_accepted_bpns_sw", "B/ns/sw", {}, {}};
  accepted.samples.push_back(
      sumOver(pts, [](const PointOutcome& o) { return o.acceptedBpnsSw; }) /
      static_cast<double>(pts.size()));
  std::vector<double> p99;
  for (const PointOutcome& o : pts) p99.push_back(o.p99LatencyNs / 1e3);
  Metric lat{"sim_p99_latency_us", "us", {median(p99)}, {}};
  return {wall, setup, cpu, eps, heap, pass, accepted, lat};
}

// ---- per-layer run (--trace 1) --------------------------------------------

struct TracedRun {
  std::vector<Metric> metrics;
  Tracer tracer;
  int iterations = 0;
};

void perLayer(const Workload& w, double seconds, Checks& checks, TracedRun& tr) {
  const int altShards = w.shards == 1 ? 2 : 1;
  const Workload alt = withShards(w, altShards);
  // As in the end-to-end run, an untimed first pass warms the allocator and
  // gives the reference outputs.
  const PassResult warmup = runApiPass(w);
  const auto& ref = warmup.points;
  checkPass(w, ref, ref, "warm-up pass", checks);
  std::vector<PassResult> untraced;
  std::vector<PassResult> altRuns;
  std::vector<TracedPassResult> traced;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    const int k = static_cast<int>(traced.size());
    untraced.push_back(runApiPass(w));
    const std::string tag = " #" + std::to_string(k);
    checkPass(w, ref, untraced.back().points, "untraced" + tag, checks);
    tr.tracer.setPass(k);
    traced.push_back(runTracedPass(w, tr.tracer));
    checkPass(w, ref, traced.back().points, "traced" + tag, checks);
    for (const auto& m : traced.back().lftMismatches) checks.failures.push_back(m);
    checks.attempted += traced.back().lftChecks;
    altRuns.push_back(runApiPass(alt));
    checkPass(w, ref, altRuns.back().points,
              std::to_string(altShards) + "-shard" + tag, checks);
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count() < seconds);
  tr.iterations = static_cast<int>(traced.size());

  const bool campaign = w.usesCampaign();
  const bool cc = w.usesCongestionControl();
  const std::string noCampaign = "no fault campaign in this workload";
  const std::string noTransport =
      "reliable transport and congestion control are off in this workload";
  const std::string noDetect =
      "zero-credit stalls are timed only with congestion detection on";

  std::vector<Metric>& out = tr.metrics;
  const auto span = [&](const std::string& metric, const std::string& name,
                        const std::string& na = {}) {
    Metric m{metric, "s", {}, na};
    for (int k = 0; k < tr.iterations; ++k) {
      m.samples.push_back(tr.tracer.totalS(name, k));
    }
    out.push_back(m);
  };
  const auto value = [&](const std::string& metric, const std::string& unit,
                         double v, const std::string& na = {}) {
    out.push_back(Metric{metric, unit, {v}, na});
  };
  const auto& pts = traced.front().points;
  const auto sum = [&pts](const std::function<double(const PointOutcome&)>& f) {
    return sumOver(pts, f);
  };
  const double n = static_cast<double>(pts.size());

  span("topology.build_s", "topology.build");
  span("topology.partition_s", "topology.partition");
  value("topology.cut_frac", "frac", traced.front().cutFrac);
  span("routing.updown_s", "routing.updown");
  span("routing.minimal_s", "routing.minimal");
  span("routing.planner_s", "routing.planner");
  span("routing.fill_rows_s", "routing.fill_rows");
  span("routing.image_s", "routing.image");
  value("routing.lft_mb", "MB", traced.front().maxLftMB);
  bool configures = false;
  for (const FabricCase& c : w.cases) configures |= !c.warm;
  span("subnet.configure_s", "subnet.configure",
       configures ? "" : "the warm session plans with buildLftImage instead");
  span("subnet.install_s", "subnet.install");
  span("fabric.construct_s", "fabric.construct");
  span("fabric.reset_s", "fabric.reset");
  span("kernel.run_s", "kernel.run");
  const double events = sum([](const PointOutcome& o) { return double(o.events); });
  value("kernel.events", "count", events);
  Metric nsPerEvent{"kernel.ns_per_event", "ns", {}, {}};
  for (int k = 0; k < tr.iterations; ++k) {
    nsPerEvent.samples.push_back(
        safeDiv(tr.tracer.totalS("kernel.run", k) * 1e9, events));
  }
  out.push_back(nsPerEvent);
  // Windows and cross-shard traffic are counts of the 2-shard kernel; a
  // 1-shard workload reads them from its 2-shard pass (same events, checked).
  const auto& sharded = w.shards == 1 ? altRuns.front().points : pts;
  const double windows = sumOver(
      sharded, [](const PointOutcome& o) { return double(o.windows); });
  value("kernel.windows", "count", windows);
  value("kernel.events_per_window", "count", safeDiv(events, windows));
  value("kernel.cross_shard_per_event", "frac",
        safeDiv(sumOver(sharded,
                        [](const PointOutcome& o) { return double(o.crossShard); }),
                events));
  Metric speedup{"kernel.speedup_2shards", "ratio", {}, {}};
  for (int k = 0; k < tr.iterations; ++k) {
    const PassResult& one = w.shards == 1 ? untraced[k] : altRuns[k];
    const PassResult& two = w.shards == 1 ? altRuns[k] : untraced[k];
    speedup.samples.push_back(safeDiv(one.runS, two.runS));
  }
  out.push_back(speedup);

  value("core.adaptive_frac", "frac",
        sum([](const PointOutcome& o) { return o.adaptiveFrac; }) / n);
  value("core.escape_frac", "frac",
        sum([](const PointOutcome& o) { return o.escapeFrac; }) / n);
  value("core.avg_hops", "hops", sum([](const PointOutcome& o) { return o.avgHops; }) / n);
  value("core.zero_credit_stall_us", "us",
        sum([](const PointOutcome& o) { return double(o.zeroCreditNs); }) / 1e3,
        cc ? "" : noDetect);
  value("core.dropped", "count", sum([](const PointOutcome& o) { return double(o.dropped); }));
  value("traffic.source_backlog", "count", sum([](const PointOutcome& o) {
          return double(o.generated) - double(o.injected);
        }));

  const std::string hostNa = cc ? "" : noTransport;
  value("host.retransmits", "count",
        sum([](const PointOutcome& o) { return double(o.retransmits); }), hostNa);
  value("host.duplicates", "count",
        sum([](const PointOutcome& o) { return double(o.duplicates); }), hostNa);
  value("host.delivered_frac", "frac",
        safeDiv(sum([](const PointOutcome& o) { return double(o.uniqueDelivered); }),
                sum([](const PointOutcome& o) { return double(o.uniqueSent); })),
        hostNa);
  value("congestion.fecn_marked", "count",
        sum([](const PointOutcome& o) { return double(o.fecnMarked); }), hostNa);
  value("congestion.rate_decreases", "count",
        sum([](const PointOutcome& o) { return double(o.rateDecreases); }), hostNa);
  value("congestion.throttled", "count",
        sum([](const PointOutcome& o) { return double(o.throttled); }), hostNa);

  const std::string faultNa = campaign ? "" : noCampaign;
  value("fault.faults", "count", sum([](const PointOutcome& o) { return double(o.faults); }),
        faultNa);
  value("reconfig.epochs", "count",
        sum([](const PointOutcome& o) { return double(o.epochs); }), faultNa);
  value("reconfig.restarts", "count",
        sum([](const PointOutcome& o) { return double(o.restarts); }), faultNa);
  value("reconfig.smps", "count", sum([](const PointOutcome& o) { return double(o.smps); }),
        faultNa);
  value("reconfig.latency_us", "us",
        safeDiv(sum([](const PointOutcome& o) { return double(o.reconfigLatencyNs); }),
                sum([](const PointOutcome& o) { return double(o.sweeps); })) /
            1e3,
        faultNa);
  value("reconfig.degraded_frac", "frac",
        safeDiv(sum([](const PointOutcome& o) { return double(o.degradedNs); }),
                sum([](const PointOutcome& o) { return double(o.simEndNs); })),
        faultNa);

  value("check.checks", "count",
        sum([](const PointOutcome& o) { return double(o.watchdogChecks); }));
  value("check.violations", "count",
        sum([](const PointOutcome& o) { return double(o.watchdogViolations); }));

  std::vector<double> tracedWall;
  std::vector<double> plainWall;
  for (int k = 0; k < tr.iterations; ++k) {
    tracedWall.push_back(traced[k].mainWallS);
    plainWall.push_back(untraced[k].wallS);
  }
  value("trace.overhead_frac", "frac",
        safeDiv(median(tracedWall), median(plainWall)) - 1.0);
}

// ---- output ---------------------------------------------------------------

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void writeRecord(const std::string& path, const Args& a, const Workload& w,
                 int repeats, const std::vector<Metric>& metrics,
                 const Checks& checks) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f,
               "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
               "  \"holdout_seed\": %d,\n",
               w.name.c_str(), static_cast<unsigned long long>(a.seed),
               kHoldoutSeed);
  std::fprintf(f, "  \"trace\": %d,\n  \"seconds\": %s,\n  \"repeats\": %d,\n",
               a.trace, fmt(a.seconds).c_str(), repeats);
  std::fprintf(f,
               "  \"host\": {\"cpu_model\": \"%s\", \"nproc\": %u, "
               "\"compiler\": \"%s\", \"build_type\": \"%s\", "
               "\"git_commit\": \"%s\"},\n",
               jsonEscape(cpuModel()).c_str(), std::thread::hardware_concurrency(),
               PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
               jsonEscape(a.commit).c_str());
  std::fprintf(f, "  \"shards\": %d,\n  \"points_per_pass\": %d,\n", w.shards,
               w.pointCount());
  std::fprintf(f, "  \"checks\": {\"attempted\": %ld, \"failures\": [", checks.attempted);
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", jsonEscape(checks.failures[i]).c_str());
  }
  std::fprintf(f, "]},\n  \"metrics\": {\n");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const Quartiles q = quartiles(m.samples);
    std::fprintf(f,
                 "    \"%s\": {\"unit\": \"%s\", \"median\": %s, \"q1\": %s, "
                 "\"q3\": %s, \"n\": %d, \"samples\": [",
                 m.name.c_str(), m.unit.c_str(), fmt(q.median).c_str(),
                 fmt(q.q1).c_str(), fmt(q.q3).c_str(), q.n);
    for (std::size_t s = 0; s < m.samples.size(); ++s) {
      std::fprintf(f, "%s%s", s ? ", " : "", fmt(m.samples[s]).c_str());
    }
    std::fprintf(f, "]");
    if (!m.notApplicable.empty()) {
      std::fprintf(f, ", \"not_applicable\": \"%s\"", jsonEscape(m.notApplicable).c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

int run(const Args& a) {
  const Workload w = makeWorkload(a.workload, a.seed);
  Checks checks;
  std::vector<Metric> metrics;
  int repeats = 0;
  TracedRun traced;
  if (a.trace == 0) {
    metrics = endToEnd(w, a.seconds, checks, repeats);
  } else {
    perLayer(w, a.seconds, checks, traced);
    metrics = traced.metrics;
    repeats = traced.iterations;
  }

  const std::string stem = a.outDir + "/" + w.name + "-seed" +
                           std::to_string(a.seed) + "-trace" +
                           std::to_string(a.trace);
  writeRecord(stem + ".record.json", a, w, repeats, metrics, checks);
  if (a.trace == 1) {
    std::FILE* f = std::fopen((stem + ".trace.json").c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + stem + ".trace.json");
    traced.tracer.writeChromeTrace(f);
    std::fclose(f);
    f = std::fopen((stem + ".layers.txt").c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + stem + ".layers.txt");
    traced.tracer.writeLayerTable(f);
    std::fclose(f);
  }

  std::printf("workload %s  seed %llu  trace %d  repeats %d  points/pass %d\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed), a.trace,
              repeats, w.pointCount());
  std::printf("%-30s %14s %14s %14s  %s\n", "metric", "median", "q1", "q3", "unit");
  for (const Metric& m : metrics) {
    const Quartiles q = quartiles(m.samples);
    std::printf("%-30s %14.6g %14.6g %14.6g  %s%s%s\n", m.name.c_str(), q.median,
                q.q1, q.q3, m.unit.c_str(), m.notApplicable.empty() ? "" : "  n/a: ",
                m.notApplicable.c_str());
  }
  for (const auto& msg : checks.failures) std::printf("CHECK FAILED: %s\n", msg.c_str());
  std::printf("record: %s.record.json\n", stem.c_str());

  // The result line: exactly correct / attempted / failed / metrics.
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %zu, \"metrics\": {",
              checks.failures.empty() ? "true" : "false", checks.attempted,
              checks.failures.size());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), fmt(median(metrics[i].samples)).c_str(),
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
