/**
 * @file
 * Order statistics for the benchmark: nearest-rank percentiles that
 * refuse to report a tail they have too few samples for, and medians
 * over repetitions.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/**
 * Samples that must lie strictly above a percentile's rank before it is
 * reported: a p999 read off fewer tail samples is the p99 in disguise.
 */
inline constexpr std::size_t minTailSamples = 10;

/**
 * Nearest-rank percentile of an ascending-sorted sample vector, with
 * the quantile given in parts per thousand (500 = median, 999 = p999)
 * so the rank is exact integer arithmetic: rank = ceil(perMille * n /
 * 1000), value = sorted[rank - 1]. Returns nothing when fewer than
 * minTailSamples samples lie beyond that rank.
 */
inline std::optional<std::uint64_t>
percentile(const std::vector<std::uint64_t> &sorted, unsigned perMille)
{
    std::size_t n = sorted.size();
    if (n == 0 || perMille == 0 || perMille > 1000)
        return std::nullopt;
    std::size_t rank = (perMille * n + 999) / 1000;
    if (n - rank < minTailSamples)
        return std::nullopt;
    return sorted[rank - 1];
}

/** Median of a sample vector (mean of the middle two when even). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
