// Slab domain decomposition (the MPI-tier model of the Fig. 6 scaling
// study).

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "support/decomposition.hpp"
#include "util/random.hpp"

namespace cop::md {
namespace {

class SlabCounts : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SlabCounts, PartitionIsCompleteAndDisjoint) {
    const std::size_t k = GetParam();
    const Box box = Box::cubic(20.0);
    cop::Rng rng(11);
    std::vector<Vec3> pos;
    for (int i = 0; i < 500; ++i)
        pos.push_back({rng.uniform(0, 20), rng.uniform(0, 20),
                       rng.uniform(0, 20)});
    SlabDecomposition dd(box, k, 2.5);
    dd.decompose(pos);

    std::set<int> seen;
    for (const auto& d : dd.domains())
        for (int p : d.owned) {
            EXPECT_TRUE(seen.insert(p).second) << "particle owned twice";
        }
    EXPECT_EQ(seen.size(), pos.size());
    EXPECT_EQ(dd.stats().totalOwned, pos.size());
}

INSTANTIATE_TEST_SUITE_P(Counts, SlabCounts,
                         ::testing::Values(1, 2, 4, 8));

TEST(SlabDecomposition, HaloCoversAllCrossBoundaryPairs) {
    const Box box = Box::cubic(16.0);
    const double cutoff = 2.0;
    cop::Rng rng(13);
    std::vector<Vec3> pos;
    for (int i = 0; i < 400; ++i)
        pos.push_back({rng.uniform(0, 16), rng.uniform(0, 16),
                       rng.uniform(0, 16)});
    SlabDecomposition dd(box, 4, cutoff);
    dd.decompose(pos);

    // Every pair within the cutoff must be computable by some domain:
    // both particles visible there (owned+halo).
    for (std::size_t i = 0; i < pos.size(); ++i) {
        for (std::size_t j = i + 1; j < pos.size(); ++j) {
            if (norm2(box.minimumImage(pos[i], pos[j])) > cutoff * cutoff)
                continue;
            bool covered = false;
            for (const auto& d : dd.domains()) {
                auto visible = [&](std::size_t p) {
                    return std::find(d.owned.begin(), d.owned.end(),
                                     int(p)) != d.owned.end() ||
                           std::find(d.halo.begin(), d.halo.end(),
                                     int(p)) != d.halo.end();
                };
                if (visible(i) && visible(j)) {
                    covered = true;
                    break;
                }
            }
            EXPECT_TRUE(covered) << "pair " << i << "," << j;
        }
    }
}

TEST(SlabDecomposition, CommunicationScalesWithDomainCount) {
    const Box box = Box::cubic(32.0);
    cop::Rng rng(17);
    std::vector<Vec3> pos;
    for (int i = 0; i < 2000; ++i)
        pos.push_back({rng.uniform(0, 32), rng.uniform(0, 32),
                       rng.uniform(0, 32)});
    SlabDecomposition dd2(box, 2, 2.0);
    SlabDecomposition dd8(box, 8, 2.0);
    dd2.decompose(pos);
    dd8.decompose(pos);
    // More slabs -> more boundary surface -> more halo traffic.
    EXPECT_GT(dd8.stats().bytesPerStep, 2 * dd2.stats().bytesPerStep);
    EXPECT_GT(dd8.requiredBandwidth(1000.0),
              dd2.requiredBandwidth(1000.0));
}

TEST(SlabDecomposition, SingleDomainHasNoHalo) {
    const Box box = Box::cubic(10.0);
    SlabDecomposition dd(box, 1, 2.0);
    dd.decompose({{1, 1, 1}, {5, 5, 5}});
    EXPECT_EQ(dd.stats().totalHalo, 0u);
    EXPECT_EQ(dd.stats().bytesPerStep, 0u);
}

TEST(SlabDecomposition, RejectsBadGeometry) {
    EXPECT_THROW(SlabDecomposition(Box::open(), 2, 1.0),
                 cop::InvalidArgument);
    // Slabs thinner than the cutoff are refused.
    EXPECT_THROW(SlabDecomposition(Box::cubic(4.0), 8, 1.0),
                 cop::InvalidArgument);
}

} // namespace
} // namespace cop::md
