/**
 * @file
 * The repo benchmark driver: one workload, one seed, one process.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-dir DIR]
 *
 * The simulated work of a workload depends only on the seed, which
 * expands into kSubSeeds sub-seeds.  The driver cycles through them
 * until S host seconds have passed (every sub-seed at least once),
 * reports host-clock metrics as medians over the repetitions,
 * calibrated against the speed of the host (calibrate.hh), and
 * simulated-clock metrics as medians over the sub-seeds, and reports
 * correct=false when any check fails.  The last stdout line is the
 * result object; README.md describes every metric.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "calibrate.hh"
#include "mem/tm_iface.hh"
#include "runs.hh"

namespace perfbench {
namespace {

using namespace utm;

/** Sub-seeds per benchmark seed.  Every simulated metric is the
 *  median over the sub-seeds' runs, which damps the input-to-input
 *  spread of tails near saturation; repetitions cycle through them. */
constexpr std::size_t kSubSeeds = 7;
/** The repetition loop stops here whatever --seconds asks. */
constexpr double kMaxSeconds = 120.0;
/** A kv level's backlog grows when the mean queueing delay of its
 *  last quarter of requests exceeds this multiple of the first half's
 *  mean plus the median service time. */
constexpr double kBacklogGrowth = 2.0;

// ---------------------------------------------------------------------
// Exact-sample statistics.

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / double(v.size());
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

/** Nearest-rank percentile of sorted samples. */
std::uint64_t
percentile(const std::vector<std::uint64_t> &s, double pct)
{
    if (s.empty())
        return 0;
    const auto rank =
        static_cast<std::size_t>(std::ceil(pct / 100.0 * double(s.size())));
    return s[std::clamp<std::size_t>(rank, 1, s.size()) - 1];
}

/** The highest of p99.99/p99.9/p99/p90/p50 with at least ten samples
 *  beyond it (the maximum when there are too few samples). */
struct Tail
{
    double pct = 100;
    std::uint64_t value = 0;
};

Tail
tailOf(const std::vector<std::uint64_t> &s)
{
    for (double pct : {99.99, 99.9, 99.0, 90.0, 50.0}) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(pct / 100.0 * double(s.size())));
        if (rank >= 1 && s.size() - rank >= 10)
            return {pct, s[rank - 1]};
    }
    return {100, s.empty() ? 0 : s.back()};
}

std::vector<std::uint64_t>
sorted(std::vector<std::uint64_t> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Failed checks, one line each. */
using Checks = std::vector<std::string>;

/** One repetition of every run of the workload, on one sub-seed. */
struct Rep
{
    std::size_t sub = 0;
    bool traced = false;
    std::vector<RunOut> runs;
};

/** Samples of one load level of one sub-seed. */
struct LevelStats
{
    /** Request (kv) or transaction (STAMP) latencies. */
    std::vector<std::uint64_t> latency;
    std::uint64_t offered = 0; ///< Requests (kv) or transactions.
    std::uint64_t shed = 0;
    std::uint64_t beyond = 0;    ///< kv: latency above kLatencyLimit.
    std::uint64_t committed = 0; ///< Transactions committed.
    double mcycles = 0;          ///< Summed completion time of its runs.
    bool backlogGrowing = false;
    // kv only: the exact split of each latency.
    std::vector<std::uint64_t> queue, serviceRead, serviceUpdate;
};

/** Aggregates over all runs of one sub-seed. */
struct Totals
{
    std::map<std::string, std::uint64_t> counters; ///< Summed over runs.
    std::map<std::string, double> kernelMcycles;
    std::vector<std::uint64_t> hwTx, swTx; ///< Tx cycles by final path.
    std::uint64_t txs = 0, attempts = 0;
    double attemptCycles = 0, wastedCycles = 0;

    double
    c(const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : double(it->second);
    }
};

/** What one sub-seed's runs yield (from its first repetition). */
struct SubRun
{
    const std::vector<RunOut> *runs = nullptr;
    std::map<std::string, LevelStats> lv; ///< By level name.
    Totals tot;
};

std::uint64_t
counter(const RunOut &run, const std::string &name)
{
    auto it = run.sim.counters.find(name);
    return it == run.sim.counters.end() ? 0 : it->second;
}

/** Transaction-level aggregates of one run (every workload). */
void
addTransactions(const RunOut &run, LevelStats &ls, Totals &tot, bool stamp)
{
    for (const ThreadLog &log : run.logs) {
        for (const TxRecord &tx : log.txs) {
            const Attempt *at = &log.attempts[tx.firstAttempt];
            const bool sw = at[tx.attempts - 1].software;
            (sw ? tot.swTx : tot.hwTx).push_back(tx.end - tx.entry);
            ++tot.txs;
            tot.attempts += tx.attempts;
            // An attempt lasts until the next body entry (the abort,
            // its unwind and backoff are wasted) or until commit.
            for (std::uint32_t a = 0; a < tx.attempts; ++a) {
                const bool last = a + 1 == tx.attempts;
                const double span =
                    double((last ? tx.end : at[a + 1].start) - at[a].start);
                tot.attemptCycles += span;
                if (!last)
                    tot.wastedCycles += span;
            }
            ++ls.committed;
            if (stamp) {
                ++ls.offered;
                ls.latency.push_back(tx.end - tx.entry);
            }
        }
    }
}

/**
 * kv: match each client's transactions to its generated stream and
 * derive exact per-request latencies, timed from the due cycle.  The
 * self-check: the site sequence must be the stream's (1 + ReqType),
 * and the exact latencies, bucketed like the program's histograms,
 * must equal svc.latency.<verb>.
 */
void
addKvRequests(const RunSpec &spec, std::uint64_t seed, const RunOut &run,
              LevelStats &ls, Checks &ck)
{
    const svc::SvcParams p = kvParams(spec.level, seed);
    std::map<std::string, Histogram> exact;
    std::vector<double> firstHalf, lastQuarter;
    for (int c = 0; c < spec.level.threads; ++c) {
        const std::string who = spec.label() + ": client " + std::to_string(c);
        const std::vector<svc::Request> stream =
            svc::generateClientStream(p.load, c);
        const std::vector<TxRecord> &txs = run.logs[c].txs;
        std::size_t k = 0;
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const svc::Request &r = stream[i];
            ++ls.offered;
            if (r.type == svc::ReqType::RawGet)
                continue; // No atomic() call to observe.
            if (k == txs.size()) {
                ck.push_back(who + " made fewer transactions than its stream");
                return;
            }
            const TxRecord &tx = txs[k++];
            if (tx.site != 1 + static_cast<TxSiteId>(r.type)) {
                ck.push_back(who + " site sequence leaves its stream at "
                                   "request " + std::to_string(i));
                return;
            }
            const std::uint64_t lat = tx.end - r.arrival;
            const std::uint64_t queue = tx.entry - r.arrival;
            ls.latency.push_back(lat);
            ls.beyond += lat > kLatencyLimit;
            ls.queue.push_back(queue);
            const bool read = r.type == svc::ReqType::Get ||
                              r.type == svc::ReqType::Scan;
            (read ? ls.serviceRead : ls.serviceUpdate)
                .push_back(tx.end - tx.entry);
            exact[svc::reqTypeName(r.type)].observe(lat);
            if (i < stream.size() / 2)
                firstHalf.push_back(double(queue));
            else if (i >= stream.size() * 3 / 4)
                lastQuarter.push_back(double(queue));
        }
        if (k != txs.size())
            ck.push_back(who + " made more transactions than its stream");
    }
    for (const char *verb : {"get", "put", "scan", "rmw"}) {
        const std::string name = std::string("svc.latency.") + verb;
        auto it = run.sim.hists.find(name);
        if (!sameHist(exact[verb],
                      it == run.sim.hists.end() ? Histogram() : it->second))
            ck.push_back(spec.label() + ": exact " + verb +
                         " latencies disagree with " + name);
    }
    // Raw GETs are beyond the limit by the program's histogram, which
    // is exact at this bucket edge.
    if (auto it = run.sim.hists.find("svc.latency.raw_get");
        it != run.sim.hists.end())
        ls.beyond += it->second.countAbove(kLatencyLimit);
    ls.shed += counter(run, "svc.shed");

    std::vector<std::uint64_t> service = ls.serviceRead;
    service.insert(service.end(), ls.serviceUpdate.begin(),
                   ls.serviceUpdate.end());
    ls.backlogGrowing =
        mean(lastQuarter) >
        kBacklogGrowth *
            (mean(firstHalf) + double(percentile(sorted(service), 50)));
}

/** The property each workload was chosen for must still hold. */
void
checkProperties(WorkloadId w, const std::vector<RunSpec> &specs,
                const std::vector<RunOut> &runs, Checks &ck)
{
    for (std::size_t r = 0; r < specs.size(); ++r) {
        const RunOut &run = runs[r];
        const std::string l = specs[r].label();
        switch (w) {
          case WorkloadId::StampHtm:
            if (counter(run, "tm.failovers") || counter(run, "ustm.commits")) {
                std::string why;
                for (const auto &[name, n] : run.sim.counters)
                    if (name.rfind("tm.failovers", 0) == 0)
                        why += " " + name + "=" + std::to_string(n);
                ck.push_back(l + ": stamp-htm left the hardware path:" + why);
            }
            break;
          case WorkloadId::StampOverflow:
            if (!counter(run, "ustm.commits"))
                ck.push_back(l + ": stamp-overflow made no software commits");
            break;
          case WorkloadId::KvDurable:
            if (counter(run, "svc.shed"))
                ck.push_back(l + ": kv shed requests");
            if (!counter(run, "dur.commits.logged"))
                ck.push_back(l + ": kv logged no durable commits");
            break;
        }
    }
}

// ---------------------------------------------------------------------
// Host clock: medians over repetitions.

struct HostMedians
{
    double run = 0, setup = 0;
    std::map<std::string, double> setupPart;
    double tracedRun = 0;
    double pickNs = 0, bodyS = 0, controlS = 0, appS = 0;
    double rawRun = 0;      ///< run before calibration.
    double calibration = 0; ///< Seconds of one reference-loop pass.
};

/**
 * Each host time of the workload is the sum over its runs of the run's
 * median over repetitions, calibrated run by run (calibrate.hh).
 */
HostMedians
hostMedians(const std::vector<Rep> &reps, std::size_t nRuns,
            const std::vector<double> &calibrations)
{
    // v[name][run]: one value per repetition.
    std::map<std::string, std::vector<std::vector<double>>> v;
    for (const Rep &rep : reps) {
        for (std::size_t r = 0; r < nRuns; ++r) {
            const RunOut &o = rep.runs[r];
            const double k = o.hostScale;
            auto put = [&](const std::string &name, double x) {
                v[name].resize(nRuns);
                v[name][r].push_back(x);
            };
            if (rep.traced) {
                put("traced", k * o.host.run);
                put("picks", double(o.split.picks));
                put("pickNs", k * double(o.split.pickNs));
                put("body", k * double(o.split.bodyNs) / 1e9);
                put("control", k * double(o.split.controlNs) / 1e9);
                put("app", k * double(o.split.appNs) / 1e9);
            } else {
                put("run", k * o.host.run);
                put("raw", o.host.run);
                put("setup", k * o.host.setup());
                put("machine", k * o.host.machine);
                put("txsystem", k * o.host.txsystem);
                put("workload", k * o.host.workload);
                put("checkpoint", k * o.host.checkpoint);
            }
        }
    }
    auto sum = [&](const std::string &name) {
        double s = 0;
        for (const std::vector<double> &x : v[name])
            s += median(x);
        return s;
    };
    HostMedians m;
    m.run = sum("run");
    m.setup = sum("setup");
    for (const char *p : {"machine", "txsystem", "workload", "checkpoint"})
        m.setupPart[p] = sum(p);
    m.tracedRun = sum("traced");
    m.pickNs = ratio(sum("pickNs"), sum("picks"));
    m.bodyS = sum("body");
    m.controlS = sum("control");
    m.appS = sum("app");
    m.rawRun = sum("raw");
    m.calibration = median(calibrations);
    return m;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

// ---------------------------------------------------------------------
// Metrics.

/**
 * The simulated end-to-end metrics of one sub-seed (@p e2e, in
 * BENCHMARK.json order after the host metrics) and the figures
 * printed beside them (@p beside).
 */
void
simMetrics(WorkloadId w, const SubRun &sub, std::vector<Metric> *e2e,
           std::vector<Metric> *beside)
{
    double simMcycles = 0;
    for (const RunOut &r : *sub.runs)
        simMcycles += double(r.sim.cycles) / 1e6;

    std::vector<Metric> p50, tail;
    double maxRateOk = 0;
    std::uint64_t offered = 0, failed = 0;
    for (const Level &l : levels(w)) {
        const LevelStats &ls = sub.lv.at(l.name);
        const Tail t = tailOf(ls.latency);
        offered += ls.offered;
        failed += ls.shed + ls.beyond;
        const double rate = w == WorkloadId::KvDurable
                                ? l.rate
                                : ratio(double(ls.committed), ls.mcycles);
        if (t.value <= kLatencyLimit && !ls.backlogGrowing)
            maxRateOk = std::max(maxRateOk, rate);
        const std::string sfx = "." + l.name;
        (l.reported ? p50 : *beside)
            .push_back({"p50_cycles" + sfx,
                        double(percentile(ls.latency, 50)), "cycles"});
        (l.reported ? tail : *beside)
            .push_back({"tail_cycles" + sfx, double(t.value), "cycles"});
        beside->push_back({"tail_pct" + sfx, t.pct, "%"});
        beside->push_back({"tail_samples" + sfx, double(ls.latency.size()),
                           "count"});
        beside->push_back({"rate" + sfx, rate, "req/Mcycle"});
        beside->push_back({"backlog_growing" + sfx,
                           ls.backlogGrowing ? 1.0 : 0.0, "bool"});
    }
    // Closed-loop STAMP kernels have no arrival schedule and nothing to
    // shed: an operation that fails there is an aborted attempt.
    const Totals &t = sub.tot;
    const double failFrac =
        w == WorkloadId::KvDurable
            ? ratio(double(failed), double(offered))
            : ratio(double(t.attempts - t.txs), double(t.attempts));

    e2e->push_back({"sim_mcycles", simMcycles, "Mcycles"});
    e2e->insert(e2e->end(), p50.begin(), p50.end());
    e2e->insert(e2e->end(), tail.begin(), tail.end());
    e2e->push_back({"max_rate_ok", maxRateOk, "req/Mcycle"});
    e2e->push_back({"fail_frac", failFrac, "fraction"});
}

/** Metric-by-metric median of same-shaped lists. */
std::vector<Metric>
medians(const std::vector<std::vector<Metric>> &lists)
{
    std::vector<Metric> out = lists.front();
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::vector<double> v;
        for (const std::vector<Metric> &l : lists)
            v.push_back(l[i].value);
        out[i].value = median(v);
    }
    return out;
}

std::vector<Metric>
perLayer(const std::vector<RunSpec> &specs, const SubRun &sub,
         const HostMedians &host)
{
    const Totals &tot = sub.tot;
    std::vector<Metric> out;
    auto add = [&](const std::string &n, double v, const char *unit) {
        out.push_back({n, v, unit});
    };
    auto c = [&](const std::string &n) { return tot.c(n); };

    // sim: the scheduler loop.
    const double steps = c("sched.steps");
    add("sim.steps", steps, "count");
    add("sim.host_ns_per_step", ratio(host.run * 1e9, steps), "ns");
    add("sim.pick_host_ns", host.pickNs, "ns");
    add("sim.preemptions", c("sched.preemptions"), "count");

    // mem: caches and coherence.
    const double l1 = c("mem.l1_hits") + c("mem.l1_misses");
    add("mem.accesses", l1, "count");
    add("mem.l1_miss_rate", ratio(c("mem.l1_misses"), l1), "fraction");
    add("mem.l2_miss_rate",
        ratio(c("mem.l2_misses"), c("mem.l2_hits") + c("mem.l2_misses")),
        "fraction");
    add("mem.cache_transfers", c("mem.cache_transfers"), "count");

    // btm: the hardware path.
    const double hwCommits = c("btm.commits");
    add("btm.abort_rate", ratio(c("btm.begins") - hwCommits, c("btm.begins")),
        "fraction");
    for (AbortReason r : {AbortReason::Conflict, AbortReason::SetOverflow,
                          AbortReason::Interrupt, AbortReason::UfoFault,
                          AbortReason::UfoBitSet, AbortReason::NonTConflict,
                          AbortReason::PageFault}) {
        const std::string n = std::string("btm.aborts.") + abortReasonName(r);
        add(n, c(n), "count");
    }
    add("btm.nacks", c("btm.nacks"), "count");
    add("btm.wounds", c("btm.wounds"), "count");
    for (const char *ph : {"begin", "commit", "abort_unwind"}) {
        const std::string n = std::string("prof.cycles.btm.") + ph;
        add(n + ".per_commit", ratio(c(n), hwCommits), "cycles");
    }

    // ufo: fault-on-access protection bits.
    add("ufo.faults", c("ufo.faults"), "count");
    add("ufo.bit_sets", c("ufo.bit_sets"), "count");
    add("btm.ufo_faults.per_commit", ratio(c("btm.ufo_faults"), hwCommits),
        "count");

    // ustm: the software path.
    const double swCommits = c("ustm.commits");
    add("ustm.abort_rate", ratio(c("ustm.aborts"), c("ustm.begins")),
        "fraction");
    add("ustm.kills", c("ustm.kills"), "count");
    add("ustm.stalls", c("ustm.stalls"), "count");
    for (const char *ph : {"barrier_read", "barrier_write", "otable_walk",
                           "commit", "stall", "abort_unwind"}) {
        const std::string n = std::string("prof.cycles.ustm.") + ph;
        add(n + ".per_commit", ratio(c(n), swCommits), "cycles");
    }

    // hybrid: the Algorithm-3 abort handler.
    add("hybrid.failover_frac",
        ratio(c("tm.failovers"), c("tm.commits.hw") + c("tm.commits.sw")),
        "fraction");
    for (const char *f : {"hard.set_overflow", "conflict", "interrupt"})
        add(std::string("tm.failovers.") + f,
            c(std::string("tm.failovers.") + f), "count");
    for (const char *f : {"conflict", "interrupt", "page_fault"})
        add(std::string("tm.retries.") + f, c(std::string("tm.retries.") + f),
            "count");
    add("prof.cycles.tm.backoff", c("prof.cycles.tm.backoff"), "cycles");

    // core: the TxSystem boundary, from the observer.
    const std::vector<std::uint64_t> hw = sorted(tot.hwTx);
    const std::vector<std::uint64_t> sw = sorted(tot.swTx);
    add("core.attempts_per_tx", ratio(double(tot.attempts), double(tot.txs)),
        "count");
    add("core.tx_cycles.hw.p50", double(percentile(hw, 50)), "cycles");
    add("core.tx_cycles.hw.tail", double(tailOf(hw).value), "cycles");
    add("core.tx_cycles.sw.p50", double(percentile(sw, 50)), "cycles");
    add("core.tx_cycles.sw.tail", double(tailOf(sw).value), "cycles");
    add("core.wasted_cycles_frac", ratio(tot.wastedCycles, tot.attemptCycles),
        "fraction");
    add("core.host_s.body", host.bodyS, "s");
    add("core.host_s.control", host.controlS, "s");
    add("core.host_s.app", host.appS, "s");

    // svc: the exact queueing/service split over the reported kv
    // levels (the overload probe would swamp it), plus the program's
    // own bucketed queue-depth and raw-GET histograms.
    std::vector<std::uint64_t> q, sr, su;
    for (const RunSpec &s : specs) {
        if (!s.level.reported)
            continue;
        const LevelStats &ls = sub.lv.at(s.level.name);
        q.insert(q.end(), ls.queue.begin(), ls.queue.end());
        sr.insert(sr.end(), ls.serviceRead.begin(), ls.serviceRead.end());
        su.insert(su.end(), ls.serviceUpdate.begin(), ls.serviceUpdate.end());
    }
    q = sorted(std::move(q));
    sr = sorted(std::move(sr));
    su = sorted(std::move(su));
    add("svc.service_cycles.read.p50", double(percentile(sr, 50)), "cycles");
    add("svc.service_cycles.read.tail", double(tailOf(sr).value), "cycles");
    add("svc.service_cycles.update.p50", double(percentile(su, 50)), "cycles");
    add("svc.service_cycles.update.tail", double(tailOf(su).value), "cycles");
    add("svc.queue_cycles.p50", double(percentile(q, 50)), "cycles");
    add("svc.queue_cycles.tail", double(tailOf(q).value), "cycles");
    for (const char *h : {"svc.queue_depth", "svc.latency.raw_get"}) {
        double sum = 0, n = 0, max = 0;
        for (std::size_t r = 0; r < specs.size(); ++r) {
            const auto &hists = (*sub.runs)[r].sim.hists;
            auto it = hists.find(h);
            if (!specs[r].level.reported || it == hists.end())
                continue;
            sum += double(it->second.sum());
            n += double(it->second.samples());
            max = std::max(max, double(it->second.max()));
        }
        const char *unit = std::string(h) == "svc.queue_depth" ? "count"
                                                               : "cycles";
        add(std::string(h) + ".mean", ratio(sum, n), unit);
        add(std::string(h) + ".max", max, unit);
    }

    // dur: the persistence domain.
    const double logged = c("dur.commits.logged");
    add("dur.persist_cycles_per_commit",
        ratio(c("prof.cycles.btm.persist") + c("prof.cycles.ustm.persist"),
              logged),
        "cycles");
    add("dur.sfence_per_commit", ratio(c("dur.sfence"), logged), "count");
    add("dur.log_bytes_per_commit", ratio(c("dur.log_bytes"), logged),
        "bytes");
    add("dur.log_lock_spins", c("dur.log_lock_spins"), "count");
    add("dur.commit_shield_nacks", c("dur.commit_shield_nacks"), "count");

    // setup: host seconds of each set-up step.
    for (const auto &kv : host.setupPart)
        add("setup." + kv.first + "_s", kv.second, "s");

    // stamp: per-kernel completion time, summed over levels.
    for (const char *k :
         {"kmeans-high", "genome", "vacation-low"}) {
        auto it = tot.kernelMcycles.find(k);
        add(std::string("stamp.") + k + ".mcycles",
            it == tot.kernelMcycles.end() ? 0 : it->second, "Mcycles");
    }

    // The end-to-end tails' percentile and sample count.
    for (const RunSpec &s : specs) {
        const std::string &l = s.level.name;
        // Once per reported level (specs repeat a level per kernel).
        if (!s.level.reported || s.kernel != specs.front().kernel)
            continue;
        const std::vector<std::uint64_t> &lat = sub.lv.at(l).latency;
        add("tail_pct." + l, tailOf(lat).pct, "%");
        add("tail_samples." + l, double(lat.size()), "count");
    }

    // host: the calibration behind every host time (calibrate.hh).
    add("host.raw_s", host.rawRun, "s");
    add("host.calibration_s", host.calibration, "s");

    // trace: this run's own cost.
    add("trace.host_s", host.tracedRun, "s");
    add("trace.overhead_s", host.tracedRun - host.run, "s");
    return out;
}

// ---------------------------------------------------------------------
// Output.

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
             number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
}

/** Transaction spans, one JSON object per line: run, thread, site,
 *  entry/end cycles, and its attempts as [start, "hw"|"sw"] (each
 *  attempt's parent is the transaction on its line). */
bool
writeSpans(const std::string &path, const std::vector<RunSpec> &specs,
           const std::vector<RunOut> &runs)
{
    std::ofstream f(path);
    for (std::size_t r = 0; r < runs.size(); ++r) {
        for (std::size_t t = 0; t < runs[r].logs.size(); ++t) {
            const ThreadLog &log = runs[r].logs[t];
            for (const TxRecord &tx : log.txs) {
                f << "{\"run\":\"" << specs[r].label() << "\",\"thread\":" << t
                  << ",\"site\":" << tx.site << ",\"entry\":" << tx.entry
                  << ",\"end\":" << tx.end << ",\"attempts\":[";
                for (std::uint32_t a = 0; a < tx.attempts; ++a) {
                    const Attempt &at = log.attempts[tx.firstAttempt + a];
                    f << (a ? ",[" : "[") << at.start << ",\""
                      << (at.software ? "sw" : "hw") << "\"]";
                }
                f << "]}\n";
            }
        }
    }
    return bool(f);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceDir;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "stamp-htm|stamp-overflow|kv-durable-open --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR]\n",
                 msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i += 2) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const char *v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 0);
        else if (k == "--seconds")
            a.seconds = std::atof(v);
        else if (k == "--trace")
            a.trace = std::atoi(v) != 0;
        else if (k == "--trace-dir")
            a.traceDir = v;
        else
            usage("unknown option " + k);
    }
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    WorkloadId wid;
    if (!parseWorkload(args.workload, &wid))
        usage("unknown workload " + args.workload);
    const std::vector<RunSpec> specs = runSpecs(wid);
    auto runSeed = [&](std::size_t sub) { return args.seed * 16 + sub; };
    Checks ck;

    // Repetitions cycle through the sub-seeds.  A traced run pairs an
    // untraced and a traced repetition of each sub-seed back to back,
    // so both host clocks see the same inputs under the same load.
    // Sub-seed k is first run, untraced, by repetition perSub * k.
    std::vector<Rep> reps;
    const std::size_t perSub = args.trace ? 2 : 1;
    // Every sub-seed once, and sub-seed 0 repeated (a traced run
    // repeats every sub-seed anyway).
    const std::size_t minReps = perSub * kSubSeeds + (args.trace ? 0 : 1);
    auto firstOf = [&](std::size_t sub) -> const std::vector<RunOut> & {
        return reps[perSub * sub].runs;
    };
    // Passes of the reference loop around every run calibrate its host
    // times (calibrate.hh).
    calibrationSeconds();
    std::vector<double> calibrations = {calibrationSeconds()};
    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    while (reps.size() < minReps ||
           (elapsed() < args.seconds && elapsed() < kMaxSeconds)) {
        Rep rep;
        rep.sub = reps.size() / perSub % kSubSeeds;
        rep.traced = args.trace && reps.size() % 2 == 1;
        for (const RunSpec &s : specs) {
            rep.runs.push_back(observedRun(s, runSeed(rep.sub), rep.traced));
            RunOut &run = rep.runs.back();
            if (!run.valid)
                ck.push_back(s.label() + ": validate() failed");
            calibrations.push_back(calibrationSeconds());
            run.hostScale = 2 * kCalibrationRefS /
                            (calibrations.end()[-2] + calibrations.back());
        }
        if (reps.size() != perSub * rep.sub) {
            // A repeat, traced or not, must reproduce the sub-seed's
            // simulated state exactly: a difference is a determinism
            // bug.  Only its host times are kept.
            const std::vector<RunOut> &ref = firstOf(rep.sub);
            for (std::size_t r = 0; r < specs.size(); ++r) {
                RunOut &run = rep.runs[r];
                std::string d = diffState(ref[r].sim, run.sim);
                if (d.empty() && !sameLogs(ref[r].logs, run.logs))
                    d = "transaction log";
                if (!d.empty())
                    ck.push_back("determinism bug: " + specs[r].label() +
                                 " differs between repetitions: " + d);
                run.sim = {};
                run.logs = {};
            }
        }
        reps.push_back(std::move(rep));
    }

    // The observer changes nothing: runWorkload()/runService() on the
    // first sub-seed's configuration leaves the same simulated state.
    for (std::size_t r = 0; r < specs.size(); ++r) {
        const RunResult plain = plainRun(specs[r], runSeed(0));
        const SimState ref{plain.cycles, plain.stats, plain.hists};
        const std::string d = diffState(firstOf(0)[r].sim, ref);
        if (!d.empty())
            ck.push_back(specs[r].label() +
                         ": observed run differs from runWorkload(): " + d);
        if (!plain.valid)
            ck.push_back(specs[r].label() +
                         ": runWorkload() failed validate()");
    }

    std::vector<SubRun> subs(kSubSeeds);
    for (std::size_t k = 0; k < kSubSeeds; ++k) {
        SubRun &sub = subs[k];
        sub.runs = &firstOf(k);
        checkProperties(wid, specs, *sub.runs, ck);
        for (std::size_t r = 0; r < specs.size(); ++r) {
            const RunSpec &s = specs[r];
            const RunOut &run = (*sub.runs)[r];
            LevelStats &ls = sub.lv[s.level.name];
            ls.mcycles += double(run.sim.cycles) / 1e6;
            sub.tot.kernelMcycles[s.kernel] += double(run.sim.cycles) / 1e6;
            for (const auto &kv : run.sim.counters)
                sub.tot.counters[kv.first] += kv.second;
            addTransactions(run, ls, sub.tot, !s.kv());
            if (s.kv())
                addKvRequests(s, runSeed(k), run, ls, ck);
        }
        for (auto &kv : sub.lv)
            kv.second.latency = sorted(std::move(kv.second.latency));
    }

    const HostMedians host = hostMedians(reps, specs.size(), calibrations);
    std::vector<std::vector<Metric>> simE2e, besides, layers;
    for (const SubRun &sub : subs) {
        simE2e.emplace_back();
        besides.emplace_back();
        simMetrics(wid, sub, &simE2e.back(), &besides.back());
        if (args.trace)
            layers.push_back(perLayer(specs, sub, host));
    }
    std::vector<Metric> e2e = {
        {"host_s", host.run, "s"},
        {"setup_s", host.setup, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    for (const Metric &m : medians(simE2e))
        e2e.push_back(m);

    std::printf("perfbench %s seed %llu: %zu repetitions of %zu runs, "
                "medians over %zu sub-seeds\n",
                args.workload.c_str(), (unsigned long long)args.seed,
                reps.size(), specs.size(), kSubSeeds);
    auto show = [](const std::vector<Metric> &list) {
        for (const Metric &x : list)
            std::printf("  %-24s %14.6g %s\n", x.name.c_str(), x.value,
                        x.unit.c_str());
    };
    show(e2e);
    show(medians(besides));
    show({{"host.raw_s", host.rawRun, "s"},
          {"host.calibration_s", host.calibration, "s"}});

    if (args.trace && !args.traceDir.empty()) {
        const std::string path = args.traceDir + "/" + args.workload +
                                 ".seed" + std::to_string(args.seed) +
                                 ".spans.jsonl";
        if (writeSpans(path, specs, firstOf(0)))
            std::printf("  spans of sub-seed 0 written to %s\n", path.c_str());
        else
            ck.push_back("cannot write spans to " + path);
    }
    for (const std::string &e : ck)
        std::printf("CHECK FAILED: %s\n", e.c_str());

    std::uint64_t attempted = 0, shed = 0;
    for (const SubRun &sub : subs) {
        for (const auto &kv : sub.lv) {
            attempted += kv.second.offered;
            shed += kv.second.shed;
        }
    }
    printResult(ck.empty(), attempted, shed,
                args.trace ? medians(layers) : e2e);
    return 0;
}
