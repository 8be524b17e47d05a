#include "runs.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "rt/heap.hh"
#include "sim/machine.hh"
#include "stamp/genome.hh"
#include "stamp/kmeans.hh"
#include "stamp/vacation.hh"

namespace perfbench {

using namespace utm;

namespace {

constexpr TxSystemKind kSystem = TxSystemKind::UfoHybrid;

// kv: tmserve, open loop, durable commits, no batching, default mix.
constexpr std::uint64_t kKvKeys = 65536;
constexpr std::uint64_t kKvBuckets = 4096;
constexpr double kKvZipf = 0.99;
constexpr int kKvRequestsPerClient = 1350;

// STAMP kernels run at their bench defaults, except vacation-low.  At
// larger sizes genome's longer list walks (and vacation-high's big
// transactions) overflow an L1 set now and then, which would take
// stamp-htm off the hardware path.  vacation-low runs just under 1000
// tasks, so its reported tail is p90 with ~100 samples beyond it, not
// p99 resting on exactly ten.
constexpr int kVacLowTasks = 992;

std::uint64_t
mix(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 finalizer over (seed, salt).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull +
                      salt * 0xbf58476d1ce4e5b9ull + 0x94d049bb133111ebull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

std::unique_ptr<Workload>
makeWorkload(const RunSpec &r, std::uint64_t seed)
{
    if (r.kernel == "kmeans-high") {
        KmeansParams p = KmeansParams::contention(true);
        p.seed = mix(seed, 10);
        return std::make_unique<KmeansWorkload>(p);
    }
    if (r.kernel == "vacation-low") {
        VacationParams p = VacationParams::contention(false);
        p.totalTasks = kVacLowTasks;
        p.seed = mix(seed, 12);
        return std::make_unique<VacationWorkload>(p);
    }
    if (r.kernel == "genome") {
        GenomeParams p;
        p.seed = mix(seed, 13);
        return std::make_unique<GenomeWorkload>(p);
    }
    return std::make_unique<svc::KvServiceWorkload>(kvParams(r.level, seed));
}

RunConfig
runConfig(const RunSpec &r, std::uint64_t seed)
{
    RunConfig cfg;
    cfg.kind = kSystem;
    cfg.threads = r.level.threads;
    cfg.machine.seed = mix(seed, 1);
    cfg.policy.durable = r.kv();
    return cfg;
}

} // namespace

bool
parseWorkload(const std::string &name, WorkloadId *out)
{
    if (name == "stamp-htm")
        *out = WorkloadId::StampHtm;
    else if (name == "stamp-overflow")
        *out = WorkloadId::StampOverflow;
    else if (name == "kv-durable-open")
        *out = WorkloadId::KvDurable;
    else
        return false;
    return true;
}

std::vector<Level>
levels(WorkloadId w)
{
    if (w == WorkloadId::KvDurable) {
        // 2000/4000/5000 req/Mcycle: per-client mean gaps of 4000,
        // 2000 and 1600 cycles.  "over" is past the ~7000 req/Mcycle
        // capacity, so max_rate_ok has a rate that must fail and
        // fail_frac counts the requests an overload pushes past the
        // limit.
        return {{"lo", 8, 2000, true},
                {"mid", 8, 4000, true},
                {"hi", 8, 5000, true},
                {"over", 8, 10000, false}};
    }
    return {{"lo", 2, 0, true}, {"mid", 4, 0, true}, {"hi", 8, 0, true}};
}

std::vector<RunSpec>
runSpecs(WorkloadId w)
{
    std::vector<std::string> kernels;
    switch (w) {
      case WorkloadId::StampHtm:
        kernels = {"kmeans-high", "genome"};
        break;
      case WorkloadId::StampOverflow:
        kernels = {"vacation-low"};
        break;
      case WorkloadId::KvDurable:
        kernels = {"kv"};
        break;
    }
    std::vector<RunSpec> out;
    for (const Level &l : levels(w))
        for (const std::string &k : kernels)
            out.push_back({k, l});
    return out;
}

svc::SvcParams
kvParams(const Level &l, std::uint64_t seed)
{
    svc::SvcParams p;
    p.load.keyspace = kKvKeys;
    p.load.zipfTheta = kKvZipf;
    p.load.requestsPerClient = kKvRequestsPerClient;
    p.load.openLoop = true;
    p.load.meanInterarrival =
        static_cast<Cycles>(std::llround(1e6 * l.threads / l.rate));
    p.load.seed = mix(seed, 3);
    p.mapBuckets = kKvBuckets;
    // Above the stream length: nothing sheds, queueing is latency.
    p.maxQueueDepth = kKvRequestsPerClient + 1;
    return p;
}

RunOut
observedRun(const RunSpec &spec, std::uint64_t seed, bool traced)
{
    using clock = std::chrono::steady_clock;
    RunOut out;
    std::unique_ptr<Workload> w = makeWorkload(spec, seed);
    const RunConfig cfg = runConfig(spec, seed);
    MachineConfig mc = cfg.machine;
    mc.numCores = std::max(mc.numCores, cfg.threads);

    auto t0 = clock::now();
    Machine machine(mc);
    TxHeap heap(machine);
    out.host.machine = secondsSince(t0);

    t0 = clock::now();
    ObservedSystem sys(TxSystem::create(cfg.kind, machine, cfg.policy));
    sys.setup();
    out.host.txsystem = secondsSince(t0);

    t0 = clock::now();
    w->setup(machine.initContext(), heap, cfg.threads);
    out.host.workload = secondsSince(t0);

    t0 = clock::now();
    if (machine.persist().active())
        machine.persist().checkpointHeap();
    for (int t = 0; t < cfg.threads; ++t) {
        machine.addThread([&w, &sys, t, n = cfg.threads](ThreadContext &tc) {
            w->threadBody(tc, sys, t, n);
        });
    }
    if (traced) {
        machine.setSchedulerPolicy(std::make_unique<TimedScheduler>(
            makeSchedulerPolicy(mc.sched, mc.seed), sys, out.split));
    }
    out.host.checkpoint = secondsSince(t0);

    t0 = clock::now();
    machine.run();
    out.valid = w->validate(machine.initContext());
    out.host.run = secondsSince(t0);

    out.sim.cycles = machine.completionTime();
    out.sim.counters = machine.stats().counters();
    out.sim.hists = machine.stats().histograms();
    for (int t = 0; t < cfg.threads; ++t)
        out.logs.push_back(sys.log(t));
    return out;
}

RunResult
plainRun(const RunSpec &spec, std::uint64_t seed)
{
    const RunConfig cfg = runConfig(spec, seed);
    if (spec.kv())
        return svc::runService(kvParams(spec.level, seed), cfg);
    std::unique_ptr<Workload> w = makeWorkload(spec, seed);
    return runWorkload(*w, cfg);
}

bool
sameHist(const Histogram &a, const Histogram &b)
{
    if (a.samples() != b.samples() || a.sum() != b.sum() ||
        a.min() != b.min() || a.max() != b.max())
        return false;
    for (int i = 0; i < Histogram::kBuckets; ++i)
        if (a.bucketCount(i) != b.bucketCount(i))
            return false;
    return true;
}

std::string
diffState(const SimState &a, const SimState &b)
{
    if (a.cycles != b.cycles)
        return "completion cycles " + std::to_string(a.cycles) + " vs " +
               std::to_string(b.cycles);
    std::map<std::string, std::uint64_t> names = a.counters;
    names.insert(b.counters.begin(), b.counters.end());
    for (const auto &kv : names) {
        auto ia = a.counters.find(kv.first);
        auto ib = b.counters.find(kv.first);
        const std::uint64_t va = ia == a.counters.end() ? 0 : ia->second;
        const std::uint64_t vb = ib == b.counters.end() ? 0 : ib->second;
        if (va != vb)
            return "counter " + kv.first + " " + std::to_string(va) +
                   " vs " + std::to_string(vb);
    }
    if (a.hists.size() != b.hists.size())
        return "histogram sets differ";
    for (const auto &kv : a.hists) {
        auto ib = b.hists.find(kv.first);
        if (ib == b.hists.end() || !sameHist(kv.second, ib->second))
            return "histogram " + kv.first;
    }
    return "";
}

bool
sameLogs(const std::vector<ThreadLog> &a, const std::vector<ThreadLog> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t t = 0; t < a.size(); ++t)
        if (a[t].txs != b[t].txs || a[t].attempts != b[t].attempts)
            return false;
    return true;
}

} // namespace perfbench
