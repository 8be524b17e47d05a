/**
 * @file
 * Calibration of host times against the speed of the host.
 *
 * On a shared host, neighbours slow the simulator by tens of percent,
 * in episodes that last from a second to minutes.  The benchmark
 * measures that speed with a reference loop: fixed work that shares no
 * code with the simulator.  One pass is a pointer chase through an
 * 8 MiB random cycle with branchy integer work at each hop, then
 * indirect calls through 512 distinct small functions, so it loads
 * both the memory hierarchy and the instruction front end.  A pass
 * runs before the first run of a workload and after every run.  A run
 * that took t host seconds between passes of c1 and c2 seconds is
 * reported as t * kCalibrationRefS / ((c1 + c2) / 2): in seconds of a
 * host on which one pass takes kCalibrationRefS.  A slower simulator
 * moves t and not c.  A host that neighbours slow down moves both,
 * the simulator somewhat more than the loop, so the ratio cancels
 * most of a slowdown but not all of it.
 */

#ifndef PERFBENCH_CALIBRATE_HH
#define PERFBENCH_CALIBRATE_HH

namespace perfbench {

/** About one pass of the reference loop on a 4-vCPU Sapphire Rapids
 *  Xeon VM, so calibrated seconds stay close to raw ones there. */
constexpr double kCalibrationRefS = 0.016;

/** Host seconds of one pass of the reference loop.  The first call
 *  builds the loop's data and warms it; discard its result. */
double calibrationSeconds();

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HH
