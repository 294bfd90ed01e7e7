/**
 * @file
 * The four workloads and what they report. README.md describes each
 * workload, why it was chosen, and every metric.
 *
 * A run's work is a function of the workload, --seconds and --seed
 * only, never of machine speed: each workload times a fixed number
 * of segments, derived from --seconds through a segment length
 * measured once on the reference machine. Memory high-water marks
 * and cache residency grow with the work done, so a time-bounded loop
 * would make them depend on how fast the box is.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "corpus.hh"
#include "formal/engine.hh"
#include "oracle.hh"
#include "stats.hh"

namespace perfbench {

struct RunConfig
{
    /** The checked-in corpus and oracle (perfbench/data). */
    std::string dataDir;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned nproc = 1;
    /** rtlcheckd binary (daemon workload). */
    std::string daemonPath;
    /** Where the traced run writes its Chrome trace. */
    std::string traceOut;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct WorkloadResult
{
    std::vector<Metric> metrics;
    /** Extra run facts printed before the result line (tail
     *  percentile and sample count, pass counts, trace file). */
    std::vector<std::string> notes;
};

/** Timed segments for a workload whose segment takes `segmentSeconds`
 *  on the reference machine: round(seconds / segmentSeconds), at
 *  least 1. */
std::size_t segmentsFor(double seconds, double segmentSeconds);

/** One timed segment: a unit of work that is identical in every
 *  segment of its group (a pass over the same tests, a replay of the
 *  same request sequence, one fixed chunk of a pass), so the segments
 *  of a group can be compared with each other. */
struct Segment
{
    std::size_t group = 0;
    double wallS = 0.0;
    double cpuMs = 0.0;        ///< of the process doing the verification
    std::uint64_t minflt = 0;  ///< of that process
    std::size_t verdicts = 0;  ///< completed
    std::vector<double> latMs; ///< one per completed verdict
};

/** Share of each group's segments the end-to-end metrics are taken
 *  over: the fastest ones by wall time. The shared 4-vCPU host this
 *  benchmark was built on slows whole multi-second phases by up to
 *  1.7x while every count repeats exactly; the fastest segments
 *  repeat across runs. */
constexpr double kFastShare = 0.25;

/** End-to-end metrics (README.md): the timings over the fastest
 *  kFastShare (at least one) of each group's untraced segments, where
 *  `failed` requests, from any segment, count as slower than any
 *  limit in the tail. Appends them, and the tail's percentile and
 *  sample count as a note. */
void reportEndToEnd(const std::vector<Segment> &segments,
                    std::size_t failed, double peakRssMiB,
                    const std::vector<double> &setupsS, WorkloadResult &out);

/** Sums over every segment. */
Segment totalOf(const std::vector<Segment> &segments);

/** Set-ups a run times; setup_s is their median. The first is the
 *  run's own; the others are repeated between timed segments, spread
 *  over the run, and thrown away. */
constexpr int kSetups = 3;

/** How many of the repeated set-ups go right before segment `s` of
 *  `segments`. */
std::size_t setupsBefore(std::size_t s, std::size_t segments);

/** The per-layer metrics of the traced run. Every workload reports
 *  all of them; a layer a workload does not call reads 0, which is
 *  how the benchmark shows a bypass (README.md, "Per-layer"). Times
 *  are per verdict unless the name says otherwise; counts are totals
 *  over the traced passes. */
struct Layers
{
    double prepareMs = 0.0;
    double vscaleBuildMs = 0.0;
    double elaborateMs = 0.0;
    std::uint64_t rtlNodes = 0;
    double exploreMs = 0.0;
    std::uint64_t states = 0;
    double exploreNsPerEval = 0.0;
    double checkMs = 0.0;
    std::uint64_t productStates = 0;
    double cacheHitRatio = 0.0;
    double cacheMiB = 0.0;
    double minfltPerVerdict = 0.0;
    double laneBusyShare = 0.0;
    double testMsInflation = 0.0;
    double rssGrowthMiB = 0.0;
    double bmcMs = 0.0;
    std::uint64_t satSolves = 0;
    std::uint64_t satConflicts = 0;
    std::uint64_t satLearnedReuse = 0;
    std::uint64_t satClauses = 0;
    double satConflictsPerS = 0.0;
    double keysMs = 0.0;
    double storeGetUs = 0.0;
    double decodeUs = 0.0;
    double storeHitRatio = 0.0;
    double storePutUs = 0.0;
    double encodeUs = 0.0;
    std::uint64_t storeBytesWritten = 0;
    double daemonServiceMs = 0.0;
    double daemonWaitMs = 0.0;
    std::uint64_t poolStolen = 0;
    double traceOverheadPct = 0.0;
};

void reportLayers(const Layers &layers, WorkloadResult &out);

/** Tracing overhead: how much lower the traced run's verdict rate is
 *  than the untraced one's, in percent. */
double overheadPct(double untracedPerS, double tracedPerS);

/** The bmc workload's engine config and its oracle name. */
rtlcheck::formal::EngineConfig bmcConfig();
constexpr const char *kBmcConfigName = "bmc6";

WorkloadResult runSweep(const RunConfig &cfg, Ledger &ledger,
                        bool parallel);
WorkloadResult runBmc(const RunConfig &cfg, Ledger &ledger);
WorkloadResult runDaemon(const RunConfig &cfg, Ledger &ledger);

/** Write the traced run's spans as Chrome trace-event JSON; a note
 *  names the file. */
void writeTrace(const std::string &path, const std::string &json,
                WorkloadResult &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
