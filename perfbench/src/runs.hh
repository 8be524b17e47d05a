/**
 * @file
 * The benchmark's workloads and how one run of each is assembled.
 *
 * A workload is a fixed set of runs (kernel x load level).  Every run
 * uses ufo-hybrid on the default machine (32 KiB L1, 4 MiB L2, one
 * otable shard) with no warm-up pass, so worker L1s start empty.
 * Sizes are fixed here; the benchmark seed is the only input.
 */

#ifndef PERFBENCH_RUNS_HH
#define PERFBENCH_RUNS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "observer.hh"
#include "sim/stats.hh"
#include "stamp/workload.hh"
#include "svc/service.hh"

namespace perfbench {

enum class WorkloadId { StampHtm, StampOverflow, KvDurable };

/** Parse a workload name; false if unknown. */
bool parseWorkload(const std::string &name, WorkloadId *out);

/**
 * A load level.  kv: the offered aggregate rate (req/Mcycle) of its 8
 * open-loop clients.  STAMP: the number of simulated threads, which is
 * the load knob of a closed loop.  Unreported levels take part only
 * in max_rate_ok and fail_frac.
 */
struct Level
{
    std::string name;
    int threads = 8;
    double rate = 0; ///< kv only.
    bool reported = true;
};

/** One run of a workload: a kernel at a load level. */
struct RunSpec
{
    std::string kernel; ///< "kmeans-high", ..., or "kv".
    Level level;

    bool kv() const { return kernel == "kv"; }
    std::string label() const { return kernel + "." + level.name; }
};

/** The latency limit behind max_rate_ok and fail_frac (simulated
 *  cycles, inclusive): 2^17 - 1, a bucket edge of the program's
 *  histograms, so their counts beyond it are exact. */
constexpr utm::Cycles kLatencyLimit = (utm::Cycles(1) << 17) - 1;

std::vector<Level> levels(WorkloadId w);
std::vector<RunSpec> runSpecs(WorkloadId w);

/** The tmserve configuration of a kv run. */
utm::svc::SvcParams kvParams(const Level &l, std::uint64_t seed);

/** Host seconds of one run's phases. */
struct HostTimes
{
    double machine = 0;    ///< Machine + TxHeap.
    double txsystem = 0;   ///< TxSystem::create + setup.
    double workload = 0;   ///< Workload::setup.
    double checkpoint = 0; ///< checkpointHeap + addThread.
    double run = 0;        ///< Machine::run + validate.

    double setup() const { return machine + txsystem + workload + checkpoint; }
};

/** Simulated state a run leaves behind; repeats exactly per seed. */
struct SimState
{
    utm::Cycles cycles = 0;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, utm::Histogram> hists;
};

struct RunOut
{
    bool valid = false;
    SimState sim;
    std::vector<ThreadLog> logs; ///< One per simulated thread.
    HostTimes host;
    HostSplit split; ///< Traced runs only.
    /** Multiplies this run's host times to calibrate them
     *  (calibrate.hh); set by the caller. */
    double hostScale = 1;
};

/** Assemble and run @p spec as runWorkload() does, observed. */
RunOut observedRun(const RunSpec &spec, std::uint64_t seed, bool traced);

/** The same configuration through runWorkload()/runService(). */
utm::RunResult plainRun(const RunSpec &spec, std::uint64_t seed);

/** First difference between two simulated states, or "". */
std::string diffState(const SimState &a, const SimState &b);

bool sameHist(const utm::Histogram &a, const utm::Histogram &b);
bool sameLogs(const std::vector<ThreadLog> &a,
              const std::vector<ThreadLog> &b);

} // namespace perfbench

#endif // PERFBENCH_RUNS_HH
