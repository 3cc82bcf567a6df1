/**
 * @file
 * The benchmark's own tests: reduced-size repetitions are bit-identical
 * for a seed and pass every output check on two seeds, tracing leaves
 * modelled results unchanged, and the percentile helper matches a
 * sorted-vector reference and withholds tails it has too few samples
 * for.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "base/rng.hh"
#include "stats.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

/** A fraction of every workload's size: seconds for all four. */
constexpr double testScale = 0.03;

TEST(Workloads, RepeatBitIdenticallyAndPassChecksOnTwoSeeds)
{
    for (const std::string &w : workloadNames()) {
        for (std::uint64_t seed : {1u, 2u}) {
            SCOPED_TRACE(w + " seed " + std::to_string(seed));
            Rep a = runRep(w, seed, testScale, nullptr, 0);
            Rep b = runRep(w, seed, testScale, nullptr, 0);
            EXPECT_TRUE(a.errors.empty())
                << (a.errors.empty() ? "" : a.errors.front());
            EXPECT_EQ(a.failed, 0u);
            EXPECT_GT(a.attempted, 0u);
            EXPECT_GT(a.simSeconds, 0);
            EXPECT_EQ(a.latencyVcycles.size(), a.attempted);
            EXPECT_TRUE(sameModel(a, b));
        }
    }
}

TEST(Workloads, SeedChangesInputs)
{
    Rep a = runRep("redis-mpk3", 1, testScale, nullptr, 0);
    Rep b = runRep("redis-mpk3", 2, testScale, nullptr, 0);
    EXPECT_NE(a.payloadBytes, b.payloadBytes);
}

TEST(Workloads, TracingLeavesModelledResultsUnchanged)
{
    for (const std::string &w : workloadNames()) {
        SCOPED_TRACE(w);
        Tracer tr;
        Rep traced = runRep(w, 7, testScale, &tr, 0);
        Rep plain = runRep(w, 7, testScale, nullptr, 0);
        EXPECT_TRUE(sameModel(traced, plain));
        EXPECT_GT(tr.mean("op").count, 0u);
        EXPECT_GT(tr.mean("setup").count, 0u);
    }
}

TEST(Workloads, UnknownWorkloadFailsItsCheck)
{
    EXPECT_FALSE(runRep("no-such-workload", 1, 1, nullptr, 0)
                     .errors.empty());
}

/** Reference: the smallest sample with at least perMille/1000 of all
 *  samples at or below it, found by scanning. */
std::uint64_t
referencePercentile(const std::vector<std::uint64_t> &sorted,
                    unsigned perMille)
{
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        std::size_t atOrBelow =
            static_cast<std::size_t>(
                std::upper_bound(sorted.begin(), sorted.end(), sorted[i]) -
                sorted.begin());
        if (atOrBelow * 1000 >= perMille * sorted.size())
            return sorted[i];
    }
    return sorted.back();
}

TEST(Stats, PercentileMatchesSortedVectorReference)
{
    flexos::Rng rng(42);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint64_t> v(rng.range(1, 3000));
        // Few distinct values, so ties straddle the ranks.
        for (auto &x : v)
            x = rng.below(trial % 2 ? 50 : 1'000'000);
        std::sort(v.begin(), v.end());
        for (unsigned pm : {1u, 100u, 500u, 900u, 990u, 999u, 1000u}) {
            auto got = percentile(v, pm);
            std::size_t rank = (pm * v.size() + 999) / 1000;
            if (v.size() - rank < minTailSamples) {
                EXPECT_FALSE(got.has_value());
                continue;
            }
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(*got, referencePercentile(v, pm))
                << "n=" << v.size() << " perMille=" << pm;
        }
    }
}

TEST(Stats, TailWithheldWithFewerThanTenSamplesBeyond)
{
    std::vector<std::uint64_t> v(9999);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = i;
    // Rank 9990 of 9999 leaves 9 samples beyond p999.
    EXPECT_FALSE(percentile(v, 999).has_value());
    EXPECT_TRUE(percentile(v, 990).has_value());
    v.push_back(v.size());
    // Rank 9990 of 10000 leaves exactly 10.
    ASSERT_TRUE(percentile(v, 999).has_value());
    EXPECT_EQ(*percentile(v, 999), 9989u);
    EXPECT_FALSE(percentile(std::vector<std::uint64_t>{}, 500).has_value());
}

TEST(Stats, MedianOfOddAndEvenCounts)
{
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

} // namespace
