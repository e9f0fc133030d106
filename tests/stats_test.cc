/**
 * @file
 * Unit and property tests for the stats substrate: RNG determinism,
 * distribution moments, exact quantiles, utilization.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/distributions.h"
#include "stats/quantile.h"
#include "stats/rng.h"
#include "stats/summary.h"
#include "stats/table_printer.h"

namespace {

using namespace dri::stats;

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff = any_diff || a.uniform() != b.uniform();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, ForkIsIndependentOfParentDraws)
{
    Rng a(7);
    Rng fork_before = a.fork(1);
    a.uniform();
    a.uniform();
    Rng fork_after = a.fork(1);
    EXPECT_DOUBLE_EQ(fork_before.uniform(), fork_after.uniform());
}

TEST(Rng, ForkSaltsProduceDistinctStreams)
{
    Rng a(7);
    Rng f1 = a.fork(1), f2 = a.fork(2);
    EXPECT_NE(f1.uniform(), f2.uniform());
}

TEST(Rng, UniformIntBounds)
{
    Rng a(3);
    for (int i = 0; i < 1000; ++i) {
        const auto v = a.uniformInt(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, BernoulliExtremes)
{
    Rng a(5);
    EXPECT_FALSE(a.bernoulli(0.0));
    EXPECT_TRUE(a.bernoulli(1.0));
}

TEST(Lognormal, MedianIsMedian)
{
    Rng rng(11);
    LognormalSampler s(4.0, 0.5);
    std::vector<double> draws;
    for (int i = 0; i < 20000; ++i)
        draws.push_back(s.sample(rng));
    std::nth_element(draws.begin(), draws.begin() + 10000, draws.end());
    EXPECT_NEAR(draws[10000], 4.0, 0.15);
}

TEST(Lognormal, ZeroSigmaIsConstant)
{
    Rng rng(1);
    LognormalSampler s(3.0, 0.0);
    EXPECT_DOUBLE_EQ(s.sample(rng), 3.0);
}

TEST(BoundedPareto, SamplesWithinBounds)
{
    Rng rng(13);
    BoundedParetoSampler s(1.1, 10.0, 1000.0);
    for (int i = 0; i < 5000; ++i) {
        const double v = s.sample(rng);
        EXPECT_GE(v, 10.0 * 0.999);
        EXPECT_LE(v, 1000.0 * 1.001);
    }
}

TEST(BoundedPareto, HeavyTailHasLargeP99OverP50)
{
    Rng rng(17);
    BoundedParetoSampler s(1.1, 50.0, 6000.0);
    QuantileEstimator q;
    for (int i = 0; i < 50000; ++i)
        q.add(s.sample(rng));
    EXPECT_GT(q.p99() / q.p50(), 5.0);
}

TEST(BoundedPareto, DegenerateRange)
{
    Rng rng(19);
    BoundedParetoSampler s(2.0, 5.0, 5.0);
    EXPECT_DOUBLE_EQ(s.sample(rng), 5.0);
}

TEST(Zipf, RankZeroMostPopular)
{
    Rng rng(23);
    ZipfSampler s(100, 1.2);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[s.sample(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], counts[50]);
}

TEST(Zipf, AllRanksReachable)
{
    Rng rng(29);
    ZipfSampler s(5, 0.5);
    std::vector<int> counts(5, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[s.sample(rng)];
    for (int c : counts)
        EXPECT_GT(c, 0);
}

/**
 * Reference inverse-CDF Zipf sampler: the same normalization loop, then a
 * binary search for the first CDF entry >= u. The guide-table sampler
 * must return exactly this rank on every draw.
 */
class ReferenceZipf
{
  public:
    ReferenceZipf(std::size_t n, double s) : cdf_(n)
    {
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
            acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
            cdf_[k] = acc;
        }
        for (auto &v : cdf_)
            v /= acc;
    }

    std::size_t
    sample(Rng &rng) const
    {
        const double u = rng.uniform();
        std::size_t lo = 0, hi = cdf_.size() - 1;
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (cdf_[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

  private:
    std::vector<double> cdf_;
};

TEST(Zipf, GuideTableMatchesBinarySearchExactly)
{
    for (const std::size_t n : {1u, 2u, 7u, 4096u, 100000u})
        for (const double s : {0.0, 0.8, 1.2, 3.0}) {
            const ZipfSampler fast(n, s);
            const ReferenceZipf ref(n, s);
            Rng a(0x5eed + n), b(0x5eed + n);
            for (int i = 0; i < 1000000; ++i)
                ASSERT_EQ(fast.sample(a), ref.sample(b))
                    << "n=" << n << " s=" << s << " draw=" << i;
        }
}

TEST(Quantile, ExactAgainstSortedSamples)
{
    QuantileEstimator q;
    for (int i = 100; i >= 1; --i)
        q.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(q.min(), 1.0);
    EXPECT_DOUBLE_EQ(q.max(), 100.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 50.5);
    EXPECT_NEAR(q.p99(), 99.01, 1e-9);
}

TEST(Quantile, SingleSample)
{
    QuantileEstimator q;
    q.add(7.0);
    EXPECT_DOUBLE_EQ(q.p50(), 7.0);
    EXPECT_DOUBLE_EQ(q.p99(), 7.0);
}

TEST(Quantile, InterleavedAddAndQuery)
{
    QuantileEstimator q;
    q.add(3.0);
    q.add(1.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
    q.add(2.0);
    EXPECT_DOUBLE_EQ(q.p50(), 2.0);
}

/** Property: quantiles are monotone in q. */
class QuantileMonotoneTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(QuantileMonotoneTest, MonotoneInQ)
{
    Rng rng(GetParam());
    QuantileEstimator q;
    for (int i = 0; i < 500; ++i)
        q.add(rng.gaussian(10.0, 5.0));
    double prev = q.quantile(0.0);
    for (double p = 0.05; p <= 1.0; p += 0.05) {
        const double v = q.quantile(p);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotoneTest,
                         ::testing::Values(1, 2, 3, 42, 99, 123456));

TEST(Quantile, P999TracksExtremeTail)
{
    QuantileEstimator q;
    for (int i = 1; i <= 10000; ++i)
        q.add(static_cast<double>(i));
    EXPECT_NEAR(q.p999(), 9991.0, 1.0);
    EXPECT_GT(q.p999(), q.p99());
    EXPECT_GT(q.p99(), q.p90());
}

TEST(Summary, UtilizationFraction)
{
    // 8 workers busy half the time over 1000 ns: 4000 unit-ns busy.
    EXPECT_DOUBLE_EQ(utilizationFraction(4000.0, 8, 1000.0), 0.5);
    EXPECT_DOUBLE_EQ(utilizationFraction(0.0, 8, 1000.0), 0.0);
    // Clamped: rounding can push the integral past capacity x elapsed.
    EXPECT_DOUBLE_EQ(utilizationFraction(9000.0, 8, 1000.0), 1.0);
    // Degenerate inputs don't divide by zero.
    EXPECT_DOUBLE_EQ(utilizationFraction(100.0, 0, 1000.0), 0.0);
    EXPECT_DOUBLE_EQ(utilizationFraction(100.0, 8, 0.0), 0.0);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t({"a", "bb"});
    t.addRow({"xxxx", "y"});
    const std::string out = t.render();
    EXPECT_NE(out.find("a     bb"), std::string::npos);
    EXPECT_NE(out.find("xxxx  y"), std::string::npos);
}

TEST(TablePrinter, NumberFormatting)
{
    EXPECT_EQ(TablePrinter::num(1.23456, 2), "1.23");
    EXPECT_EQ(TablePrinter::pct(0.073, 1), "+7.3%");
    EXPECT_EQ(TablePrinter::pct(-0.01, 1), "-1.0%");
}

// Misuse throws in every build type, Release included.

TEST(StatsMisuse, LognormalRejectsNonPositiveMedianOrNegativeSigma)
{
    EXPECT_THROW(LognormalSampler(0.0, 0.5), std::invalid_argument);
    EXPECT_THROW(LognormalSampler(-1.0, 0.5), std::invalid_argument);
    EXPECT_THROW(LognormalSampler(1.0, -0.1), std::invalid_argument);
    EXPECT_THROW(LognormalSampler(std::nan(""), 0.5), std::invalid_argument);
    EXPECT_NO_THROW(LognormalSampler(1.0, 0.0));
}

TEST(StatsMisuse, BoundedParetoRejectsBadParameters)
{
    EXPECT_THROW(BoundedParetoSampler(0.0, 1.0, 2.0), std::invalid_argument);
    EXPECT_THROW(BoundedParetoSampler(1.0, 0.0, 2.0), std::invalid_argument);
    EXPECT_THROW(BoundedParetoSampler(1.0, 3.0, 2.0), std::invalid_argument);
    EXPECT_NO_THROW(BoundedParetoSampler(1.0, 2.0, 2.0));
}

TEST(StatsMisuse, ZipfRejectsEmptyRankSet)
{
    EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
    EXPECT_NO_THROW(ZipfSampler(1, 1.0));
}

TEST(StatsMisuse, ZipfRejectsNaNExponent)
{
    EXPECT_THROW(ZipfSampler(4096, std::nan("")), std::invalid_argument);
    EXPECT_NO_THROW(ZipfSampler(4096, 0.0));
}

TEST(StatsMisuse, QuantileOfNoSamplesThrows)
{
    const QuantileEstimator q;
    EXPECT_THROW(q.quantile(0.5), std::out_of_range);
    EXPECT_THROW(q.p99(), std::out_of_range);
}

TEST(StatsMisuse, QuantileOutsideUnitIntervalThrows)
{
    QuantileEstimator q;
    q.add(1.0);
    q.add(2.0);
    EXPECT_THROW(q.quantile(-0.1), std::invalid_argument);
    EXPECT_THROW(q.quantile(1.5), std::invalid_argument);
    EXPECT_THROW(q.quantile(std::nan("")), std::invalid_argument);
}

TEST(StatsMisuse, TablePrinterRejectsEmptyHeaders)
{
    EXPECT_THROW(TablePrinter({}), std::invalid_argument);
}

TEST(StatsMisuse, TablePrinterRejectsRowOfWrongWidth)
{
    TablePrinter t({"a", "b"});
    EXPECT_THROW(t.addRow({"x"}), std::invalid_argument);
    EXPECT_THROW(t.addRow({"x", "y", "z"}), std::invalid_argument);
    t.addRow({"x", "y"});
    EXPECT_NE(t.render().find("x  y"), std::string::npos);
}

} // namespace
