#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>

#include "check/invariant_watchdog.hpp"
#include "fabric/fabric.hpp"
#include "fault/fault_campaign.hpp"
#include "heap_gauge.hpp"
#include "host/reliable_transport.hpp"
#include "routing/lft_image.hpp"
#include "routing/minimal.hpp"
#include "routing/updown.hpp"
#include "stats/collector.hpp"
#include "subnet/subnet_manager.hpp"
#include "topology/partition.hpp"
#include "traffic/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace ibadapt;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double processCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// splitmix64: one workload seed fans out into independent topology,
/// traffic and fault seeds.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void setShards(SimParams& p, int shards) {
  p.fabric.kernel = shards > 1 ? SimKernel::kParallel : SimKernel::kCalendar;
  p.fabric.threads = shards;
}

// paper-sweep: the paper's experiment (irregular 64 switches, 4 links and 4
// hosts per switch, 32 B uniform traffic, 100 % adaptive, 2 options) on one
// warm session, from light load to past the knee, then saturation.
Workload paperSweep(std::uint64_t seed) {
  Workload w;
  w.name = "paper-sweep";
  w.shards = 1;
  FabricCase c;
  c.label = "irregular-64";
  c.warm = true;
  c.base.topoKind = TopologyKind::kIrregular;
  c.base.numSwitches = 64;
  c.base.linksPerSwitch = 4;
  c.base.nodesPerSwitch = 4;
  c.base.topoSeed = derive(seed, 1);
  c.base.packetBytes = 32;
  c.base.adaptiveFraction = 1.0;
  c.base.fabric.numOptions = 2;
  setShards(c.base, w.shards);
  // Offered load in B/ns per host; x4 hosts gives the paper's per-switch
  // units. The knee of these fabrics sits between 0.025 and 0.035 depending
  // on the topology, so no point lies in that band: a point there lands on
  // either side with the seed and flips the accepted traffic and the source
  // backlog (hence the heap). At 0.05 every fabric is past the knee, and its
  // backlog (140k-220k packets) stays within one doubling of the packet pool.
  const double loads[] = {0.005, 0.01, 0.015, 0.02, 0.025, 0.05};
  int i = 0;
  for (const double load : loads) {
    Point pt;
    pt.label = "load-" + std::to_string(load).substr(0, 5);
    pt.params = c.base;
    pt.params.loadBytesPerNsPerNode = load;
    pt.params.trafficSeed = derive(seed, 100 + static_cast<std::uint64_t>(i++));
    c.points.push_back(pt);
  }
  Point sat;
  sat.label = "saturation";
  sat.params = c.base;
  sat.params.saturation = true;
  sat.params.trafficSeed = derive(seed, 100 + static_cast<std::uint64_t>(i));
  c.points.push_back(sat);
  w.cases.push_back(c);
  return w;
}

// cold-fabrics: the first point on a new large fabric, one per family, where
// topology build, fabric construction and LFT planning dominate.
Workload coldFabrics(std::uint64_t seed) {
  Workload w;
  w.name = "cold-fabrics";
  w.shards = 2;
  for (int k = 0; k < 3; ++k) {
    FabricCase c;
    SimParams& p = c.base;
    p.nodesPerSwitch = 2;
    if (k == 0) {
      c.label = "irregular-1024";
      p.topoKind = TopologyKind::kIrregular;
      p.numSwitches = 1024;
      p.linksPerSwitch = 4;
    } else if (k == 1) {
      c.label = "fat-tree-864";  // 6-ary 4-tree, hosts on the 216 leaves
      p.topoKind = TopologyKind::kFatTree;
      p.fatTreeArity = 6;
      p.fatTreeLevels = 4;
    } else {
      c.label = "dragonfly-1024";  // a=16 routers, h=4 global, g=64 groups
      p.topoKind = TopologyKind::kDragonfly;
      p.dragonflyRoutersPerGroup = 16;
      p.dragonflyGlobalPerRouter = 4;
      p.dragonflyGroups = 64;
    }
    p.topoSeed = derive(seed, 10 + static_cast<std::uint64_t>(k));
    p.pattern = TrafficPattern::kUniform;
    p.saturation = true;
    // Short budget: the run phase stays a minority of the point's wall.
    p.warmupPackets = 2048;
    p.measurePackets = 6 * 2048;
    setShards(p, w.shards);
    Point pt;
    pt.label = "saturation";
    pt.params = p;
    pt.params.trafficSeed = derive(seed, 20 + static_cast<std::uint64_t>(k));
    c.points.push_back(pt);
    w.cases.push_back(c);
  }
  return w;
}

// fault-reconfig: open-loop load below the knee with the reliable transport
// and congestion control on, while stochastic link faults force live epoch
// swaps (replan, staged SMP install, two LFT banks) under traffic. The timed
// passes run the sequential kernel: on this small fabric the 2-shard run
// crosses a barrier every ~230 events, and its wall time follows the host's
// scheduling more than the program. The traced run still times 2 shards.
Workload faultReconfig(std::uint64_t seed) {
  Workload w;
  w.name = "fault-reconfig";
  w.shards = 1;
  FabricCase c;
  c.label = "irregular-64";
  SimParams& p = c.base;
  p.topoKind = TopologyKind::kIrregular;
  p.numSwitches = 64;
  p.linksPerSwitch = 4;
  p.nodesPerSwitch = 4;
  p.topoSeed = derive(seed, 1);
  p.loadBytesPerNsPerNode = 0.01;
  p.congestionControl = true;
  p.reliableTransport = true;
  p.warmupPackets = 100;
  p.measurePackets = ~0ULL >> 1;  // run to the horizon
  p.maxSimTimeNs = 3'000'000;
  p.faultMtbfNs = 200'000.0;
  p.faultMttrNs = p.faultMtbfNs / 3.0;
  p.faultSeed = derive(seed, 3);
  p.reconfig.mode = ReconfigMode::kLiveEpochSwap;
  setShards(p, w.shards);
  Point pt;
  pt.label = "live-swap";
  pt.params = p;
  pt.params.trafficSeed = derive(seed, 2);
  pt.budgeted = false;
  c.points.push_back(pt);
  w.cases.push_back(c);
  return w;
}

// ---- mirrors of the API's private helpers (api/simulation.cpp) -----------
// The traced path must drive the layers exactly as runSimulationOn and
// SimSession do; perfbench checks that both paths give identical results.

FabricParams effectiveFabricParams(const SimParams& p) {
  FabricParams fparams = p.fabric;
  if (p.congestionControl) {
    fparams.congestion = p.congestion;
    fparams.congestion.enabled = true;
  }
  return fparams;
}

SubnetParams subnetParamsOf(const SimParams& p) {
  SubnetParams sp;
  sp.rootSelection = p.rootSelection;
  sp.sourceMultipathPlanes = p.sourceMultipathPlanes;
  sp.apmPathSets = p.apmPathSets;
  return sp;
}

bool runsCampaign(const SimParams& p) {
  return !p.scriptedFaults.empty() || p.faultMtbfNs > 0.0 ||
         p.berPerBit > 0.0 || p.creditLossRate > 0.0;
}

void installImage(Fabric& fabric, const LftImage& image) {
  for (std::size_t sw = 0; sw < image.entries.size(); ++sw) {
    const auto& row = image.entries[sw];
    fabric.setLftBlock(static_cast<SwitchId>(sw), 0, row.data(), row.size());
  }
}

PointOutcome fromSimResults(const SimResults& r) {
  PointOutcome o;
  o.events = r.kernelEvents;
  o.generated = r.generated;
  o.injected = r.injected;
  o.delivered = r.delivered;
  o.dropped = r.dropped;
  o.measured = r.measured;
  o.acceptedBpnsSw = r.acceptedBytesPerNsPerSwitch;
  o.avgLatencyNs = r.avgLatencyNs;
  o.p99LatencyNs = r.p99LatencyNs;
  o.avgHops = r.avgHops;
  o.adaptiveFrac = r.adaptiveForwardFraction;
  o.escapeFrac = r.escapeForwardFraction;
  o.measurementComplete = r.measurementComplete;
  o.deadlockSuspected = r.deadlockSuspected;
  o.livePacketLimitHit = r.livePacketLimitHit;
  o.inOrderViolations = r.inOrderViolations;
  o.simEndNs = r.simEndTimeNs;
  o.zeroCreditNs = r.congestion.zeroCreditStallNs;
  o.fecnMarked = r.congestion.fecnMarked;
  o.rateDecreases = r.congestion.rateDecreases;
  o.throttled = r.congestion.packetsThrottled;
  const ResilienceStats& rs = r.resilience;
  o.retransmits = rs.retransmitsSent;
  o.duplicates = rs.duplicatesSuppressed;
  o.uniqueSent = rs.uniqueSent;
  o.uniqueDelivered = rs.uniqueDelivered;
  o.faults = rs.faultsInjected;
  o.sweeps = rs.smSweeps;
  o.epochs = rs.epochsInstalled;
  o.restarts = rs.computeRestarts;
  o.smps = rs.reconfigSmpsSent;
  o.reconfigLatencyNs = rs.reconfigLatencyNs;
  o.degradedNs = rs.degradedTimeNs;
  o.silentCorruptions = rs.silentCorruptions;
  o.auditsRun = rs.auditsRun;
  o.auditsPassed = rs.auditsPassed;
  o.watchdogChecks = r.invariants.checksRun;
  o.watchdogViolations = r.invariants.violations();
  o.setupS = (r.setupWallMs + r.planWallMs) / 1e3;
  o.runS = r.runWallMs / 1e3;
  o.windows = r.windowsExecuted;
  o.crossShard = r.crossShardMessages;
  return o;
}

/// Traffic attach, run and harvest on a configured fabric, driving each
/// component directly (the order of attachments matches the API's).
PointOutcome executeDirect(Fabric& fabric, const Topology& topo,
                           const SimParams& p, const SubnetParams& sp,
                           Tracer& tracer) {
  TrafficSpec ts;
  ts.multipathPlanes = p.sourceMultipathPlanes;
  ts.pathSetOffset = p.apmActiveSet * p.fabric.numOptions;
  ts.pattern = p.pattern;
  ts.numNodes = topo.numNodes();
  ts.packetBytes = p.packetBytes;
  ts.adaptiveFraction = p.adaptiveFraction;
  ts.loadBytesPerNsPerNode = p.loadBytesPerNsPerNode;
  ts.saturation = p.saturation;
  ts.hotspotFraction = p.hotspotFraction;
  ts.hotspotNode = p.hotspotNode;
  ts.localityWindow = p.localityWindow;
  ts.burstiness = p.burstiness;
  ts.burstGapMeanNs = p.burstGapMeanNs;
  ts.incastBurstPackets = p.incastBurstPackets;
  ts.incastPeriodNs = p.incastPeriodNs;
  ts.stormEpochs = p.stormEpochs;
  ts.stormPeriodNs = p.stormPeriodNs;
  ts.numSls = p.trafficSls > 0 ? p.trafficSls : p.fabric.numVls;
  SyntheticTraffic traffic(ts, p.trafficSeed ^ 0xfeedULL);

  StatsCollector::Config sc;
  sc.warmupPackets = p.warmupPackets;
  sc.measurePackets = p.measurePackets;
  StatsCollector stats(sc, topo.numNodes());
  stats.bindFabric(&fabric);

  std::optional<ReliableTransport> transport;
  if (p.reliableTransport || p.congestionControl) {
    ReliableTransportSpec tspec = p.transport;
    if (tspec.ackDelayNs < p.fabric.linkPropagationNs) {
      tspec.ackDelayNs = p.fabric.linkPropagationNs;
    }
    if (p.congestionControl) {
      tspec.throttle.enabled = true;
      tspec.throttle.nsPerByte = p.fabric.nsPerByte;
    }
    fabric.limitWindowCap(tspec.ackDelayNs);
    transport.emplace(traffic, topo.numNodes(), tspec);
    transport->attachObserver(&stats);
    fabric.attachTraffic(&*transport, p.trafficSeed);
    fabric.attachObserver(&*transport);
  } else {
    fabric.attachTraffic(&traffic, p.trafficSeed);
    fabric.attachObserver(&stats);
  }
  std::optional<InvariantWatchdog> watchdog;
  if (p.invariantChecks) {
    WatchdogSpec ws;
    ws.periodNs = p.invariantPeriodNs;
    ws.policy = p.invariantPolicy;
    ws.maxDrainAgeNs = p.invariantMaxDrainAgeNs;
    watchdog.emplace(ws);
    watchdog->attachTo(fabric);
  }
  fabric.start();

  RunLimits limits;
  limits.endTime = p.maxSimTimeNs;
  limits.watchdogPeriodNs = p.watchdogPeriodNs;
  limits.watchdogStallLimit = p.watchdogStallLimit;

  PointOutcome o;
  SubnetManager sm(fabric);
  std::optional<FaultCampaign> campaign;
  const auto runStart = Clock::now();
  if (runsCampaign(p)) {
    FaultCampaignSpec fc;
    fc.scripted = p.scriptedFaults;
    fc.mtbfNs = p.faultMtbfNs;
    fc.mttrNs = p.faultMttrNs;
    fc.seed = p.faultSeed;
    fc.maxStochasticFaults = p.maxStochasticFaults;
    fc.keepConnected = p.faultKeepConnected;
    fc.sweepDelayNs = p.sweepDelayNs;
    fc.subnet = sp;
    fc.auditAfterSweep = p.auditAfterSweep;
    fc.reconfig = p.reconfig;
    fc.transient.berPerBit = p.berPerBit;
    fc.transient.creditLossRate = p.creditLossRate;
    fc.transient.seed = p.transientFaultSeed;
    fc.transient.resyncPeriodNs = p.creditResyncPeriodNs;
    fc.transient.resyncDetectPeriods = p.creditResyncDetectPeriods;
    campaign.emplace(fabric, sm, fc);
    ScopedSpan span(&tracer, "kernel.run");
    campaign->run(limits);
  } else {
    ScopedSpan span(&tracer, "kernel.run");
    fabric.run(limits);
  }
  o.runS = secondsSince(runStart);

  if (campaign) {
    const ResilienceStats& rs = campaign->stats();
    o.faults = rs.faultsInjected;
    o.sweeps = rs.smSweeps;
    o.epochs = rs.epochsInstalled;
    o.restarts = rs.computeRestarts;
    o.smps = rs.reconfigSmpsSent;
    o.reconfigLatencyNs = rs.reconfigLatencyNs;
    o.degradedNs = rs.degradedTimeNs;
    o.silentCorruptions = rs.silentCorruptions;
    o.auditsRun = rs.auditsRun;
    o.auditsPassed = rs.auditsPassed;
    o.retransmits = rs.retransmitsSent;
    o.duplicates = rs.duplicatesSuppressed;
    o.uniqueSent = rs.uniqueSent;
    o.uniqueDelivered = rs.uniqueDelivered;
  }
  if (transport) {
    o.retransmits = transport->retransmitsSent();
    o.duplicates = transport->duplicatesSuppressed();
    o.uniqueSent = transport->uniqueSent();
    o.uniqueDelivered = transport->uniqueDelivered();
  }
  if (watchdog) {
    o.watchdogChecks = watchdog->stats().checksRun;
    o.watchdogViolations = watchdog->stats().violations();
  }
  const auto& lat = stats.latency();
  o.avgLatencyNs = lat.mean();
  o.p99LatencyNs = lat.quantile(0.99);
  o.acceptedBpnsSw = stats.acceptedBytesPerNs() / topo.numSwitches();

  const FabricCounters c = fabric.counters();
  if (p.congestionControl) {
    o.zeroCreditNs = c.zeroCreditNs;
    o.fecnMarked = c.fecnMarked;
    o.rateDecreases = transport->rateDecreases();
    o.throttled = transport->packetsThrottled();
  }
  o.events = c.events;
  o.generated = c.generated;
  o.injected = c.injected;
  o.delivered = c.delivered;
  o.dropped = c.dropped;
  o.measured = stats.measuredPackets();
  o.avgHops = c.delivered ? static_cast<double>(c.hopSum) /
                                static_cast<double>(c.delivered)
                          : 0.0;
  const double forwards =
      static_cast<double>(c.adaptiveForwards + c.escapeForwards);
  if (forwards > 0) {
    o.adaptiveFrac = static_cast<double>(c.adaptiveForwards) / forwards;
    o.escapeFrac = static_cast<double>(c.escapeForwards) / forwards;
  }
  o.measurementComplete = stats.measurementComplete();
  o.deadlockSuspected = fabric.deadlockSuspected();
  o.livePacketLimitHit = fabric.livePacketLimitHit();
  o.inOrderViolations = stats.inOrder().violations();
  o.simEndNs = fabric.now();
  o.windows = fabric.windowsExecuted();
  o.crossShard = fabric.crossShardMessages();
  return o;
}

/// Compares the switch tables a fabric holds with a planned image.
void compareTables(const Fabric& fabric, const LftImage& image,
                   const std::string& label, TracedPassResult& out) {
  ++out.lftChecks;
  for (std::size_t sw = 0; sw < image.entries.size(); ++sw) {
    const auto& row = image.entries[sw];
    for (std::size_t lid = 0; lid < row.size(); ++lid) {
      const PortIndex want = row[lid] == kLftImageUnset
                                 ? kInvalidPort
                                 : static_cast<PortIndex>(row[lid]);
      if (fabric.lftEntry(static_cast<SwitchId>(sw), static_cast<Lid>(lid)) !=
          want) {
        out.lftMismatches.push_back(label + ": installed LFT differs from "
                                    "buildLftImage at switch " +
                                    std::to_string(sw));
        return;
      }
    }
  }
}

/// Calls the routing layers one at a time on `topo`, as the LFT planner
/// would, so each gets its own span. Returns the rows fillRow produced.
std::vector<std::vector<std::uint8_t>> probeRouting(const Topology& topo,
                                                    const LftPlanSpec& spec,
                                                    Tracer& tracer) {
  std::unique_ptr<ThreadPool> pool;
  if (spec.threads > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(spec.threads));
  }
  std::optional<SwitchAdjacency> adj;
  {
    ScopedSpan s(&tracer, "routing.adjacency");
    adj.emplace(topo);
  }
  {
    ScopedSpan s(&tracer, "routing.updown");
    UpDownBuildOptions opts;
    opts.keepDownDistances = false;  // as buildLftImage plans
    opts.pool = pool.get();
    const UpDownRouting updown(topo, *adj, spec.rootSelection, 0, opts);
  }
  {
    ScopedSpan s(&tracer, "routing.minimal");
    const MinimalAdaptiveRouting minimal(topo, *adj, pool.get());
  }
  std::optional<LftPlanner> planner;
  {
    ScopedSpan s(&tracer, "routing.planner");
    planner.emplace(topo, spec);
  }
  std::vector<std::vector<std::uint8_t>> rows(
      static_cast<std::size_t>(topo.numSwitches()));
  {
    ScopedSpan s(&tracer, "routing.fill_rows");
    const auto fill = [&](std::size_t sw) {
      planner->fillRow(static_cast<SwitchId>(sw), rows[sw]);
    };
    if (planner->pool() != nullptr) {
      parallelForIndex(*planner->pool(), rows.size(), fill);
    } else {
      for (std::size_t sw = 0; sw < rows.size(); ++sw) fill(sw);
    }
  }
  return rows;
}

}  // namespace

int Workload::pointCount() const {
  int n = 0;
  for (const FabricCase& c : cases) n += static_cast<int>(c.points.size());
  return n;
}

bool Workload::usesCampaign() const {
  for (const FabricCase& c : cases) {
    for (const Point& pt : c.points) {
      if (runsCampaign(pt.params)) return true;
    }
  }
  return false;
}

bool Workload::usesCongestionControl() const {
  for (const FabricCase& c : cases) {
    for (const Point& pt : c.points) {
      if (pt.params.congestionControl) return true;
    }
  }
  return false;
}

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "paper-sweep") return paperSweep(seed);
  if (name == "cold-fabrics") return coldFabrics(seed);
  if (name == "fault-reconfig") return faultReconfig(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

Workload withShards(Workload w, int shards) {
  w.shards = shards;
  for (FabricCase& c : w.cases) {
    setShards(c.base, shards);
    for (Point& pt : c.points) setShards(pt.params, shards);
  }
  return w;
}

std::vector<std::string> deterministicDiff(const PointOutcome& a,
                                           const PointOutcome& b) {
  std::vector<std::string> diff;
#define PERFBENCH_CMP(field) \
  if (a.field != b.field) diff.emplace_back(#field)
  PERFBENCH_CMP(events);
  PERFBENCH_CMP(generated);
  PERFBENCH_CMP(injected);
  PERFBENCH_CMP(delivered);
  PERFBENCH_CMP(dropped);
  PERFBENCH_CMP(measured);
  PERFBENCH_CMP(acceptedBpnsSw);
  PERFBENCH_CMP(avgLatencyNs);
  PERFBENCH_CMP(p99LatencyNs);
  PERFBENCH_CMP(avgHops);
  PERFBENCH_CMP(adaptiveFrac);
  PERFBENCH_CMP(escapeFrac);
  PERFBENCH_CMP(measurementComplete);
  PERFBENCH_CMP(deadlockSuspected);
  PERFBENCH_CMP(livePacketLimitHit);
  PERFBENCH_CMP(inOrderViolations);
  PERFBENCH_CMP(simEndNs);
  PERFBENCH_CMP(zeroCreditNs);
  PERFBENCH_CMP(fecnMarked);
  PERFBENCH_CMP(rateDecreases);
  PERFBENCH_CMP(throttled);
  PERFBENCH_CMP(retransmits);
  PERFBENCH_CMP(duplicates);
  PERFBENCH_CMP(uniqueSent);
  PERFBENCH_CMP(uniqueDelivered);
  PERFBENCH_CMP(faults);
  PERFBENCH_CMP(sweeps);
  PERFBENCH_CMP(epochs);
  PERFBENCH_CMP(restarts);
  PERFBENCH_CMP(smps);
  PERFBENCH_CMP(reconfigLatencyNs);
  PERFBENCH_CMP(degradedNs);
  PERFBENCH_CMP(silentCorruptions);
  PERFBENCH_CMP(auditsRun);
  PERFBENCH_CMP(auditsPassed);
  PERFBENCH_CMP(watchdogChecks);
  PERFBENCH_CMP(watchdogViolations);
#undef PERFBENCH_CMP
  return diff;
}

std::vector<std::string> pointFailures(const Point& point,
                                       const PointOutcome& o) {
  std::vector<std::string> f;
  if (point.budgeted && !o.measurementComplete) {
    f.emplace_back("incomplete measurement");
  }
  if (o.deadlockSuspected) f.emplace_back("deadlockSuspected");
  if (o.livePacketLimitHit) f.emplace_back("livePacketLimitHit");
  if (o.inOrderViolations > 0) f.emplace_back("in-order violation");
  if (o.watchdogViolations > 0) f.emplace_back("watchdog violation");
  if (o.silentCorruptions > 0) f.emplace_back("silent corruption");
  if (o.auditsPassed != o.auditsRun) f.emplace_back("fabric audit failed");
  return f;
}

PassResult runApiPass(const Workload& w, bool meterHeap) {
  PassResult res;
  if (meterHeap) heap::start();
  const double cpu0 = processCpuS();
  const auto t0 = Clock::now();
  for (const FabricCase& c : w.cases) {
    const auto buildStart = Clock::now();
    Topology topo = buildTopology(c.base);
    res.setupS += secondsSince(buildStart);
    const auto record = [&res](const SimResults& r) {
      res.points.push_back(fromSimResults(r));
      res.setupS += res.points.back().setupS;
      res.runS += res.points.back().runS;
    };
    if (c.warm) {
      SimSession session(std::move(topo), c.base);
      for (const Point& pt : c.points) record(session.run(pt.params));
    } else {
      for (const Point& pt : c.points) record(runSimulationOn(topo, pt.params));
    }
  }
  res.wallS = secondsSince(t0);
  res.cpuS = processCpuS() - cpu0;
  if (meterHeap) res.peakHeapMB = static_cast<double>(heap::stop()) / 1e6;
  return res;
}

TracedPassResult runTracedPass(const Workload& w, Tracer& tracer) {
  TracedPassResult out;
  std::uint64_t cutLinks = 0;
  std::uint64_t totalLinks = 0;
  int pointId = 0;
  for (const FabricCase& c : w.cases) {
    const SubnetParams sp = subnetParamsOf(c.base);
    const auto t0 = Clock::now();
    std::optional<Topology> topo;
    std::optional<Fabric> fabric;  // the last point's fabric, kept for probes
    LftImage image;
    {
      ScopedSpan caseSpan(&tracer, "case " + c.label);
      {
        ScopedSpan s(&tracer, "topology.build");
        topo.emplace(buildTopology(c.base));
      }
      if (c.warm) {
        // SimSession: construct and plan once, then reset + reinstall.
        {
          ScopedSpan s(&tracer, "fabric.construct");
          fabric.emplace(*topo, effectiveFabricParams(c.base));
        }
        {
          ScopedSpan s(&tracer, "routing.image");
          image = buildLftImage(*topo, SubnetManager::planSpec(*fabric, sp));
        }
        for (std::size_t i = 0; i < c.points.size(); ++i) {
          ScopedSpan ps(&tracer, "point", pointId++);
          if (i > 0) {
            ScopedSpan s(&tracer, "fabric.reset");
            fabric->reset();
          }
          {
            ScopedSpan s(&tracer, "subnet.install");
            installImage(*fabric, image);
          }
          out.points.push_back(
              executeDirect(*fabric, *topo, c.points[i].params, sp, tracer));
        }
      } else {
        // runSimulationOn: a fresh fabric and a full configure per point.
        for (const Point& pt : c.points) {
          ScopedSpan ps(&tracer, "point", pointId++);
          fabric = std::nullopt;  // runSimulationOn frees its fabric too
          {
            ScopedSpan s(&tracer, "fabric.construct");
            fabric.emplace(*topo, effectiveFabricParams(pt.params));
          }
          {
            ScopedSpan s(&tracer, "subnet.configure");
            SubnetManager(*fabric).configure(sp);
          }
          out.points.push_back(
              executeDirect(*fabric, *topo, pt.params, sp, tracer));
        }
      }
    }
    out.mainWallS += secondsSince(t0);

    // Probes: layers the workload reaches only inside a bigger call.
    {
      ScopedSpan probeSpan(&tracer, "probe " + c.label);
      {
        ScopedSpan s(&tracer, "topology.partition");
        const PartitionResult pr =
            partitionSwitches(*topo, 2, c.base.fabric.partition);
        cutLinks += pr.cutLinks;
        totalLinks += pr.totalLinks;
      }
      const LftPlanSpec spec = SubnetManager::planSpec(*fabric, sp);
      const auto rows = probeRouting(*topo, spec, tracer);
      if (!c.warm) {
        ScopedSpan s(&tracer, "routing.image");
        image = buildLftImage(*topo, spec);
      }
      ++out.lftChecks;
      if (rows != image.entries) {
        out.lftMismatches.push_back(c.label +
                                    ": fillRow rows differ from buildLftImage");
      }
      double bytes = 0.0;
      for (const auto& row : image.entries) bytes += static_cast<double>(row.size());
      out.maxLftMB = std::max(out.maxLftMB, bytes / 1e6);
      // A fault campaign reswept the tables; otherwise they must still be
      // the planned image.
      if (!runsCampaign(c.points.back().params)) {
        compareTables(*fabric, image, c.label, out);
      }
      if (!c.warm) {
        {
          ScopedSpan s(&tracer, "fabric.reset");
          fabric->reset();
        }
        ScopedSpan s(&tracer, "subnet.install");
        installImage(*fabric, image);
      }
    }
    // The API pass pays the teardown inside its own wall time.
    const auto teardown = Clock::now();
    fabric = std::nullopt;
    topo = std::nullopt;
    out.mainWallS += secondsSince(teardown);
  }
  out.cutFrac = totalLinks > 0 ? static_cast<double>(cutLinks) /
                                     static_cast<double>(totalLinks)
                               : 0.0;
  return out;
}

}  // namespace perfbench
