/**
 * @file
 * Order statistics for the benchmark's latency metrics.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <vector>

namespace perfbench {

/** Linear-interpolated quantile, q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/** The tail percentile the benchmark reports for `samples` samples:
 *  99 from 1,000 samples up, otherwise the highest whole percentile
 *  whose nearest-rank sample still has at least 10 samples beyond
 *  it. Never below 50: with fewer than 20 samples the "tail" is the
 *  median. */
int tailPercentile(std::size_t samples);

struct Tail
{
    int percentile = 50;
    /** Nearest-rank value; +infinity when it lands on a failure. */
    double value = 0.0;
    /** Samples the percentile was taken over, failures included. */
    std::size_t samples = 0;
};

/** Tail of `values` plus `failed` requests, each of which counts as
 *  slower than any measured value. */
Tail tailOf(std::vector<double> values, std::size_t failed);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
