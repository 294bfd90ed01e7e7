#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

namespace {

/** 1-based nearest rank of percentile p over n samples. */
std::size_t
nearestRank(int p, std::size_t n)
{
    // ceil(p * n / 100) in integers, at least 1.
    std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
    return std::max<std::size_t>(rank, 1);
}

} // namespace

int
tailPercentile(std::size_t samples)
{
    if (samples >= 1000)
        return 99;
    int p = 99;
    while (p > 50 && samples - std::min(samples, nearestRank(p, samples)) <
                         10)
        --p;
    return p;
}

Tail
tailOf(std::vector<double> values, std::size_t failed)
{
    Tail tail;
    tail.samples = values.size() + failed;
    if (tail.samples == 0)
        return tail;
    tail.percentile = tailPercentile(tail.samples);
    values.insert(values.end(), failed,
                  std::numeric_limits<double>::infinity());
    std::sort(values.begin(), values.end());
    tail.value = values[nearestRank(tail.percentile, tail.samples) - 1];
    return tail;
}

} // namespace perfbench
