/**
 * @file
 * Outside-in instrumentation for the repo benchmark.
 *
 * Both classes sit at a public boundary of the library and leave the
 * simulated machine untouched, so every simulated counter of an
 * observed run equals that of a plain runWorkload() run:
 *
 *  - ObservedSystem is a TxSystem that forwards atomicAt() to the real
 *    system (so the site guard runs once, in TxSystem::atomic) and
 *    wraps the body to log, per outermost transaction, its site, its
 *    entry and return cycles, and the start cycle and path of every
 *    attempt (one body entry per attempt).
 *  - TimedScheduler wraps the real SchedulerPolicy and times, in host
 *    nanoseconds, each pick() and each fiber slice between two picks.
 *    A slice is charged to where its thread stopped: inside a
 *    transaction body, inside the TM system's control code (begin,
 *    commit, abort handling, backoff), or in application code.
 */

#ifndef PERFBENCH_OBSERVER_HH
#define PERFBENCH_OBSERVER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/tx_system.hh"
#include "sim/scheduler.hh"

namespace perfbench {

using utm::Cycles;
using utm::ThreadContext;
using utm::TxHandle;
using utm::TxSiteId;

/** One attempt: a body entry. */
struct Attempt
{
    Cycles start = 0;
    bool software = false;

    bool operator==(const Attempt &) const = default;
};

/** One outermost transaction (one atomic() call). */
struct TxRecord
{
    TxSiteId site = utm::kTxSiteNone;
    Cycles entry = 0;  ///< atomicAt() entry.
    Cycles end = 0;    ///< atomicAt() return (commit done).
    std::uint32_t firstAttempt = 0; ///< Index into ThreadLog::attempts.
    std::uint32_t attempts = 0;

    bool operator==(const TxRecord &) const = default;
};

/** Everything observed on one simulated thread. */
struct ThreadLog
{
    std::vector<TxRecord> txs;
    std::vector<Attempt> attempts;
    int depth = 0;       ///< atomic() nesting depth.
    bool inBody = false; ///< Inside an outermost transaction body.
};

/** The TxSystem observer. */
class ObservedSystem final : public utm::TxSystem
{
  public:
    explicit ObservedSystem(std::unique_ptr<utm::TxSystem> inner)
        : TxSystem(inner->kind(), inner->machine(), inner->policy()),
          inner_(std::move(inner))
    {
    }

    void setup() override { inner_->setup(); }

    void
    atomicAt(ThreadContext &tc, TxSiteId site, const Body &body) override
    {
        ThreadLog &log = logs_[tc.id()];
        Depth depth(log);
        if (log.depth > 1) {
            // Flattened nesting: the enclosing record covers it.
            inner_->atomicAt(tc, site, body);
            return;
        }
        TxRecord rec;
        rec.site = site;
        rec.entry = tc.now();
        rec.firstAttempt = static_cast<std::uint32_t>(log.attempts.size());
        inner_->atomicAt(tc, site, [&](TxHandle &h) {
            log.attempts.push_back(
                {tc.now(), h.path() == TxHandle::Path::Software});
            ++rec.attempts;
            InBody in(log);
            body(h);
        });
        rec.end = tc.now();
        log.txs.push_back(rec);
    }

    const char *name() const override { return inner_->name(); }

    utm::AbortReason
    lastHwAbortReason(ThreadContext &tc) const override
    {
        return inner_->lastHwAbortReason(tc);
    }

    const ThreadLog &log(utm::ThreadId t) const { return logs_[t]; }

  private:
    /** Exception-safe depth count (aborts unwind through bodies). */
    struct Depth
    {
        explicit Depth(ThreadLog &l) : log(l) { ++log.depth; }
        ~Depth() { --log.depth; }
        ThreadLog &log;
    };

    struct InBody
    {
        explicit InBody(ThreadLog &l) : log(l) { log.inBody = true; }
        ~InBody() { log.inBody = false; }
        ThreadLog &log;
    };

    std::unique_ptr<utm::TxSystem> inner_;
    std::array<ThreadLog, utm::kMaxThreads> logs_;
};

/** Host time of one traced run, split by where slices stopped. */
struct HostSplit
{
    std::uint64_t picks = 0;
    std::uint64_t pickNs = 0;
    std::uint64_t bodyNs = 0;    ///< Slices that stopped in a body.
    std::uint64_t controlNs = 0; ///< ... in TM control code.
    std::uint64_t appNs = 0;     ///< ... outside any transaction.
};

/** The SchedulerPolicy wrapper (traced runs only). */
class TimedScheduler final : public utm::SchedulerPolicy
{
  public:
    TimedScheduler(std::unique_ptr<utm::SchedulerPolicy> inner,
                   const ObservedSystem &sys, HostSplit &out)
        : inner_(std::move(inner)), sys_(sys), out_(out)
    {
    }

    const char *name() const override { return inner_->name(); }

    utm::ThreadId
    pick(const utm::SchedulerView &view) override
    {
        const std::uint64_t t0 = nowNs();
        closeSlice(t0);
        const utm::ThreadId p = inner_->pick(view);
        const std::uint64_t t1 = nowNs();
        out_.pickNs += t1 - t0;
        ++out_.picks;
        last_ = p;
        sliceStart_ = t1;
        return p;
    }

    void
    onRunEnd(utm::StatsRegistry &stats) override
    {
        closeSlice(nowNs());
        inner_->onRunEnd(stats);
    }

  private:
    static std::uint64_t
    nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    void
    closeSlice(std::uint64_t t)
    {
        if (last_ < 0)
            return;
        const ThreadLog &log = sys_.log(last_);
        const std::uint64_t ns = t - sliceStart_;
        if (log.inBody)
            out_.bodyNs += ns;
        else if (log.depth > 0)
            out_.controlNs += ns;
        else
            out_.appNs += ns;
        last_ = -1;
    }

    std::unique_ptr<utm::SchedulerPolicy> inner_;
    const ObservedSystem &sys_;
    HostSplit &out_;
    utm::ThreadId last_ = -1;
    std::uint64_t sliceStart_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_OBSERVER_HH
