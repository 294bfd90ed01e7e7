/**
 * @file
 * Process-level probes: CPU time, minor faults and resident memory
 * of the benchmark itself or of a child process (the daemon), read
 * from getrusage(2) and /proc.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <chrono>
#include <cstdint>
#include <sys/types.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ProcSample
{
    double cpuMs = 0.0;        ///< user + sys
    std::uint64_t minflt = 0;  ///< minor page faults
    double rssMiB = 0.0;       ///< current resident set (VmRSS)
    double peakRssMiB = 0.0;   ///< high-water mark (VmHWM)
};

/** The calling process. */
ProcSample sampleSelf();

/** Another process of the same user; all zero if it is gone. */
ProcSample sampleProcess(pid_t pid);

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
