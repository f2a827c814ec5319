#include "mdlib/neighborlist.hpp"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "mdlib/proteins.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace cop::md {
namespace {

/// Random particles in a periodic box; no exclusions.
struct RandomSystem {
    Topology top;
    Box box;
    std::vector<Vec3> positions;
};

RandomSystem makeRandom(std::size_t n, double boxLen, std::uint64_t seed) {
    RandomSystem sys;
    sys.top = Topology(n);
    sys.top.finalize();
    sys.box = Box::cubic(boxLen);
    cop::Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i)
        sys.positions.push_back({rng.uniform(0.0, boxLen),
                                 rng.uniform(0.0, boxLen),
                                 rng.uniform(0.0, boxLen)});
    return sys;
}

std::set<std::pair<int, int>> bruteForcePairs(const RandomSystem& sys,
                                              double cutoff) {
    std::set<std::pair<int, int>> pairs;
    const int n = int(sys.positions.size());
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j) {
            const Vec3 d = sys.box.minimumImage(sys.positions[std::size_t(i)],
                                                sys.positions[std::size_t(j)]);
            if (norm2(d) <= cutoff * cutoff) pairs.insert({i, j});
        }
    return pairs;
}

std::set<std::pair<int, int>> toSet(const std::vector<NeighborPair>& pairs) {
    std::set<std::pair<int, int>> out;
    for (const auto& p : pairs)
        out.insert({std::min(p.i, p.j), std::max(p.i, p.j)});
    return out;
}

class NeighborListSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NeighborListSizes, CellListMatchesBruteForce) {
    const auto sys = makeRandom(GetParam(), 12.0, 17 + GetParam());
    NeighborList nl(2.5, 0.3);
    nl.build(sys.top, sys.box, sys.positions);
    const auto expected = bruteForcePairs(sys, 2.8);
    EXPECT_EQ(toSet(nl.pairs()), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NeighborListSizes,
                         ::testing::Values(2, 10, 50, 200, 500));

TEST(NeighborList, OpenBoundaryBruteForce) {
    auto sys = makeRandom(40, 8.0, 5);
    sys.box = Box::open();
    NeighborList nl(2.0, 0.2);
    nl.build(sys.top, sys.box, sys.positions);
    EXPECT_EQ(toSet(nl.pairs()), bruteForcePairs(sys, 2.2));
}

TEST(NeighborList, ExclusionsNeverAppear) {
    Topology top(4);
    top.addBond({0, 1, 1.0, 1.0});
    top.addBond({2, 3, 1.0, 1.0});
    top.finalize();
    const std::vector<Vec3> pos{
        {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}};
    NeighborList nl(5.0, 0.5);
    nl.build(top, Box::open(), pos);
    const auto set = toSet(nl.pairs());
    EXPECT_EQ(set.count({0, 1}), 0u);
    EXPECT_EQ(set.count({2, 3}), 0u);
    EXPECT_EQ(set.count({0, 2}), 1u);
    EXPECT_EQ(set.size(), 4u); // 6 pairs minus 2 exclusions
}

/// The brute-force build's pairs, in the order it emits them: ascending
/// i, then ascending j, skipping each excluded pair by a per-pair
/// Topology::isExcluded lookup.
std::vector<std::pair<int, int>> exclusionScan(const Topology& top,
                                               const Box& box,
                                               const std::vector<Vec3>& pos,
                                               double listCut) {
    std::vector<std::pair<int, int>> out;
    const int n = int(pos.size());
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j) {
            if (top.isExcluded(i, j)) continue;
            const Vec3 d = box.minimumImage(pos[std::size_t(i)],
                                            pos[std::size_t(j)]);
            if (norm2(d) <= listCut * listCut) out.push_back({i, j});
        }
    return out;
}

std::vector<std::pair<int, int>> asVector(const std::vector<NeighborPair>& ps) {
    std::vector<std::pair<int, int>> out;
    for (const auto& p : ps) out.push_back({p.i, p.j});
    return out;
}

TEST(NeighborList, BruteForceMatchesExclusionScanInOrder) {
    // Villin: the production topology, open box.
    const auto model = villinGoModel();
    cop::Rng rng(3);
    auto pos = model.native;
    for (auto& p : pos) p += rng.gaussianVec3(0.3);
    const auto ffp = model.forceFieldParams();
    NeighborList nl(ffp.cutoff, ffp.neighborSkin);
    nl.build(model.topology, Box::open(), pos);
    EXPECT_TRUE(nl.cellOrder().empty());
    EXPECT_EQ(asVector(nl.pairs()),
              exclusionScan(model.topology, Box::open(), pos,
                            ffp.cutoff + ffp.neighborSkin));

    // Dense exclusions: about half of all pairs excluded, including the
    // first and last partner of rows, adjacent runs and whole rows.
    const std::size_t n = 30;
    Topology dense(n);
    for (int i = 0; i < int(n); ++i)
        for (int j = i + 1; j < int(n); ++j)
            if (i == 0 || j == int(n) - 1 || j == i + 1 || rng.uniform() < 0.4)
                dense.addBond({i, j, 1.0, 1.0});
    dense.finalize();
    std::vector<Vec3> cloud;
    for (std::size_t i = 0; i < n; ++i)
        cloud.push_back({rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0),
                         rng.uniform(0.0, 4.0)});
    for (const Box& box : {Box::open(), Box::cubic(5.0)}) {
        NeighborList dnl(2.0, 0.2);
        dnl.build(dense, box, cloud);
        const auto expected = exclusionScan(dense, box, cloud, 2.2);
        EXPECT_FALSE(expected.empty());
        EXPECT_EQ(asVector(dnl.pairs()), expected);
    }
}

TEST(NeighborList, UpdateOnlyRebuildsWhenNeeded) {
    auto sys = makeRandom(100, 10.0, 7);
    NeighborList nl(2.0, 0.4);
    nl.build(sys.top, sys.box, sys.positions);
    EXPECT_EQ(nl.numBuilds(), 1u);

    // Tiny displacement: no rebuild.
    auto moved = sys.positions;
    for (auto& p : moved) p += Vec3{0.05, 0.0, 0.0};
    EXPECT_FALSE(nl.update(sys.top, sys.box, moved));
    EXPECT_EQ(nl.numBuilds(), 1u);

    // Displacement beyond skin/2: rebuild.
    moved[0] += Vec3{0.5, 0.0, 0.0};
    EXPECT_TRUE(nl.update(sys.top, sys.box, moved));
    EXPECT_EQ(nl.numBuilds(), 2u);
}

TEST(NeighborList, BufferedListStaysValidWithinSkin) {
    // Pairs within cutoff after a sub-skin/2 move must already be in the
    // list built from the old positions (the Verlet-buffer guarantee).
    auto sys = makeRandom(150, 9.0, 11);
    const double cutoff = 2.0, skin = 0.6;
    NeighborList nl(cutoff, skin);
    nl.build(sys.top, sys.box, sys.positions);
    const auto listed = toSet(nl.pairs());

    cop::Rng rng(23);
    auto moved = sys.positions;
    for (auto& p : moved) {
        const Vec3 d = rng.gaussianVec3(1.0);
        p += normalized(d) * (0.45 * skin / 2.0 + 0.0); // < skin/2
    }
    RandomSystem movedSys{Topology(sys.positions.size()), sys.box, moved};
    movedSys.top.finalize();
    for (const auto& p : bruteForcePairs(movedSys, cutoff))
        EXPECT_TRUE(listed.count(p)) << p.first << "," << p.second;
}

TEST(NeighborList, ParticlesOnBoundariesMatchBruteForce) {
    // Particles exactly on faces, edges and corners of the box (0 and L in
    // each dimension) plus a random filler population. Exercises the wrap
    // + cell-index clamping path of the counting-sort build.
    const double L = 12.0;
    auto sys = makeRandom(80, L, 31);
    const double coords[] = {0.0, L, L / 2.0};
    for (double cx : coords)
        for (double cy : coords)
            for (double cz : coords) sys.positions.push_back({cx, cy, cz});
    sys.top = Topology(sys.positions.size());
    sys.top.finalize();
    NeighborList nl(2.5, 0.3);
    nl.build(sys.top, sys.box, sys.positions);
    EXPECT_EQ(toSet(nl.pairs()), bruteForcePairs(sys, 2.8));
}

TEST(NeighborList, BoxBarelyThreeCellsMatchesBruteForce) {
    // listCut = 2.8; boxes exactly at and just above the 3x listCut
    // threshold where the cell path switches on with the minimum 3x3x3
    // grid (every cell is its own neighbour's neighbour — the wrap
    // arithmetic must still visit each cell pair exactly once).
    for (double L : {3.0 * 2.8, 3.0 * 2.8 + 1e-9, 3.0 * 2.8 + 0.5}) {
        auto sys = makeRandom(150, L, 37);
        NeighborList nl(2.5, 0.3);
        nl.build(sys.top, sys.box, sys.positions);
        EXPECT_EQ(toSet(nl.pairs()), bruteForcePairs(sys, 2.8)) << "L=" << L;
        // Deterministic, duplicate-free emission without a sort pass.
        auto seen = toSet(nl.pairs());
        EXPECT_EQ(seen.size(), nl.pairs().size()) << "duplicate pairs";
    }
}

TEST(NeighborList, NegativeAndFarOutOfBoxPositionsMatchBruteForce) {
    // Positions outside [0, L) must wrap into the correct cell.
    auto sys = makeRandom(60, 12.0, 41);
    for (std::size_t i = 0; i < sys.positions.size(); i += 3)
        sys.positions[i] += Vec3{-12.0, 24.0, -36.0};
    NeighborList nl(2.5, 0.3);
    nl.build(sys.top, sys.box, sys.positions);
    EXPECT_EQ(toSet(nl.pairs()), bruteForcePairs(sys, 2.8));
}

TEST(NeighborList, ParallelDisplacementScanMatchesSerial) {
    auto sys = makeRandom(5000, 24.0, 43);
    cop::ThreadPool pool(4);
    NeighborList serial(2.0, 0.4), parallel(2.0, 0.4);
    serial.build(sys.top, sys.box, sys.positions);
    parallel.build(sys.top, sys.box, sys.positions);

    auto moved = sys.positions;
    for (auto& p : moved) p += Vec3{0.05, 0.0, 0.0};
    EXPECT_FALSE(serial.update(sys.top, sys.box, moved));
    EXPECT_FALSE(parallel.update(sys.top, sys.box, moved, &pool));

    moved[4321] += Vec3{0.5, 0.0, 0.0};
    EXPECT_TRUE(serial.update(sys.top, sys.box, moved));
    EXPECT_TRUE(parallel.update(sys.top, sys.box, moved, &pool));
    EXPECT_EQ(toSet(serial.pairs()), toSet(parallel.pairs()));
}

TEST(NeighborList, HotParticleShortCircuitStillRebuilds) {
    // After one rebuild triggered by a mover, the same particle moving
    // again must trigger the fast path (rebuild count goes up each time).
    auto sys = makeRandom(200, 12.0, 47);
    NeighborList nl(2.0, 0.4);
    nl.build(sys.top, sys.box, sys.positions);
    auto moved = sys.positions;
    for (int step = 1; step <= 3; ++step) {
        moved[7] += Vec3{0.5, 0.0, 0.0};
        EXPECT_TRUE(nl.update(sys.top, sys.box, moved));
        EXPECT_EQ(nl.numBuilds(), std::size_t(step) + 1);
        EXPECT_EQ(toSet(nl.pairs()),
                  bruteForcePairs({sys.top, sys.box, moved}, 2.4));
    }
}

TEST(NeighborList, RejectsBadParameters) {
    EXPECT_THROW(NeighborList(-1.0, 0.1), cop::InvalidArgument);
    EXPECT_THROW(NeighborList(1.0, -0.1), cop::InvalidArgument);
}

} // namespace
} // namespace cop::md
