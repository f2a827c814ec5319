#include "util/statistics.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace cop {
namespace {

TEST(RunningStats, BasicMoments) {
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
}

TEST(Statistics, MeanAndVariance) {
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_NEAR(variance(xs), 5.0 / 3.0, 1e-12);
    EXPECT_NEAR(standardError(xs), stddev(xs) / 2.0, 1e-12);
}

TEST(Statistics, MeanOfEmptyThrows) {
    EXPECT_THROW(mean({}), InvalidArgument);
}

TEST(Statistics, Percentile) {
    std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.0);
    EXPECT_THROW(percentile(xs, 101.0), InvalidArgument);
}

} // namespace
} // namespace cop
