#include "calibrate.hh"

#include <array>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

// Pointer chase: kChaseSteps hops through a random cycle of
// kChaseSlots slots (8 MiB), with integer work at each hop.
constexpr std::size_t kChaseSlots = std::size_t(1) << 21;
constexpr int kChaseSteps = 1 << 16;
// Front end: kCallSteps indirect calls, each to one of kFunctions
// distinct functions picked by the running value.
constexpr int kFunctions = 512;
constexpr int kCallSteps = 1 << 17;
constexpr std::size_t kTableSlots = 4096;

volatile std::uint64_t sink;

const std::vector<std::uint32_t> &
chaseCycle()
{
    static const std::vector<std::uint32_t> next = [] {
        // Sattolo's shuffle: a single cycle through every slot.
        std::vector<std::uint32_t> v(kChaseSlots);
        std::iota(v.begin(), v.end(), 0u);
        std::mt19937_64 rng(1);
        for (std::size_t i = v.size() - 1; i > 0; --i)
            std::swap(v[i], v[rng() % i]);
        return v;
    }();
    return next;
}

std::uint64_t
chase()
{
    const std::vector<std::uint32_t> &next = chaseCycle();
    std::uint32_t p = 0;
    std::uint64_t x = 0x9e3779b97f4a7c15ull, h = 0;
    for (int i = 0; i < kChaseSteps; ++i) {
        p = next[p];
        for (int k = 0; k < 8; ++k) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h = (x & 4) ? h + (x >> 3) : h ^ (x * 7);
        }
        h += p;
    }
    return h;
}

std::array<std::uint64_t, kTableSlots> table;

/** One of kFunctions small functions; N varies shifts, branches and
 *  table slots, so each instance is distinct code. */
template <int N>
__attribute__((noinline)) std::uint64_t
step(std::uint64_t x)
{
    std::uint64_t y = x * (0x9e3779b97f4a7c15ull + 2 * N) + N;
    if ((y >> (N % 13 + 3)) & 1)
        y ^= y >> (N % 7 + 5);
    else
        y += table[(y >> 20) % kTableSlots];
    if ((y >> (N % 11 + 9)) & 1) {
        y = (y << 3) | (y >> 61);
        table[(y >> 30) % kTableSlots] += N;
    }
    for (int k = 0; k < int(y & 3); ++k)
        y = y * 31 + N;
    return y;
}

using Step = std::uint64_t (*)(std::uint64_t);

template <int... N>
constexpr std::array<Step, sizeof...(N)>
steps(std::integer_sequence<int, N...>)
{
    return {&step<N>...};
}

constexpr std::array<Step, kFunctions> kSteps =
    steps(std::make_integer_sequence<int, kFunctions>{});

std::uint64_t
calls()
{
    table.fill(0); // The same work on every pass.
    std::uint64_t x = 1;
    for (int i = 0; i < kCallSteps; ++i)
        x = kSteps[(x >> 17) % kFunctions](x);
    return x;
}

} // namespace

double
calibrationSeconds()
{
    chaseCycle();
    const auto t0 = std::chrono::steady_clock::now();
    sink = chase() + calls();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace perfbench
