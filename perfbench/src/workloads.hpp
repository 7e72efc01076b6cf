#pragma once
//
// The benchmark's workloads and the two ways perfbench executes them:
//
//  * runApiPass — the timed path. It calls only what users call
//    (buildTopology, runSimulationOn, SimSession::run) and times from
//    outside.
//  * runTracedPass — the per-layer path. It calls each layer's public
//    functions itself (topology build, partitioner, routing engines, LFT
//    planner, fabric, subnet manager, fabric run / fault campaign) with a
//    span around every call, and reproduces the timed path's simulation
//    exactly, which perfbench checks.
//
#include <cstdint>
#include <string>
#include <vector>

#include "api/simulation.hpp"
#include "trace.hpp"

namespace perfbench {

struct Point {
  std::string label;
  ibadapt::SimParams params;
  /// The measurement ends on a packet budget; a point without one runs to
  /// a fixed simulated horizon and never reports a complete measurement.
  bool budgeted = true;
};

/// One fabric and the points run on it.
struct FabricCase {
  std::string label;
  ibadapt::SimParams base;  // topology and fabric structure of every point
  std::vector<Point> points;
  /// One warm SimSession runs every point; otherwise each point is a fresh
  /// runSimulationOn on the case's topology.
  bool warm = false;
};

struct Workload {
  std::string name;
  int shards = 1;  // kernel shards the workload is defined on
  std::vector<FabricCase> cases;

  int pointCount() const;
  bool usesCampaign() const;
  bool usesCongestionControl() const;
};

/// Throws std::invalid_argument for an unknown name.
Workload makeWorkload(const std::string& name, std::uint64_t seed);
/// The same workload on another shard count (1 = sequential kernel).
Workload withShards(Workload w, int shards);

/// What one simulation point produced. The deterministic fields are the
/// bit-identity contract: equal across shard counts and between the timed
/// and traced paths. The host fields are measurements.
struct PointOutcome {
  // ---- deterministic -----------------------------------------------------
  std::uint64_t events = 0;
  std::uint64_t generated = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t measured = 0;
  double acceptedBpnsSw = 0.0;
  double avgLatencyNs = 0.0;
  double p99LatencyNs = 0.0;
  double avgHops = 0.0;
  double adaptiveFrac = 0.0;
  double escapeFrac = 0.0;
  bool measurementComplete = false;
  bool deadlockSuspected = false;
  bool livePacketLimitHit = false;
  std::uint64_t inOrderViolations = 0;
  std::int64_t simEndNs = 0;
  std::uint64_t zeroCreditNs = 0;
  std::uint64_t fecnMarked = 0;
  std::uint64_t rateDecreases = 0;
  std::uint64_t throttled = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t uniqueSent = 0;
  std::uint64_t uniqueDelivered = 0;
  int faults = 0;
  int sweeps = 0;
  std::uint32_t epochs = 0;
  std::uint32_t restarts = 0;
  std::uint64_t smps = 0;
  std::uint64_t reconfigLatencyNs = 0;
  std::int64_t degradedNs = 0;
  std::uint64_t silentCorruptions = 0;
  int auditsRun = 0;
  int auditsPassed = 0;
  std::uint64_t watchdogChecks = 0;
  std::uint64_t watchdogViolations = 0;
  // ---- host side (not compared) -------------------------------------------
  double setupS = 0.0;  // fabric setup + plan/install (or reset + reinstall)
  double runS = 0.0;    // event loop
  std::uint64_t windows = 0;
  std::uint64_t crossShard = 0;
};

/// Names of the deterministic fields on which `a` and `b` differ.
std::vector<std::string> deterministicDiff(const PointOutcome& a,
                                           const PointOutcome& b);
/// Names of the health checks `o` fails (empty = the point passes).
std::vector<std::string> pointFailures(const Point& point,
                                       const PointOutcome& o);

struct PassResult {
  double wallS = 0.0;   // first topology build -> last result harvest
  double cpuS = 0.0;    // process CPU time over the same interval
  double setupS = 0.0;  // topology builds + every point's setup
  double runS = 0.0;    // event loops
  double peakHeapMB = 0.0;  // metered passes only
  std::vector<PointOutcome> points;  // workload order
};

/// `meterHeap` turns the heap gauge on for the pass, which slows
/// allocation-heavy layers; timed passes leave it off.
PassResult runApiPass(const Workload& w, bool meterHeap = false);

struct TracedPassResult {
  /// Wall time of the workload's own calls; the probes the traced pass adds
  /// (lone routing engines, partitioner, LFT read-back) are excluded, so
  /// this compares with an untraced pass's wallS.
  double mainWallS = 0.0;
  std::vector<PointOutcome> points;
  double cutFrac = 0.0;     // partitioner cut, summed links over cases
  double maxLftMB = 0.0;    // largest LFT image among the cases
  long lftChecks = 0;       // table comparisons made
  std::vector<std::string> lftMismatches;
};

TracedPassResult runTracedPass(const Workload& w, Tracer& tracer);

}  // namespace perfbench
