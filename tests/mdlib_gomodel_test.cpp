// Gō-model builder and built-in protein structures.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "mdlib/forcefield.hpp"
#include "mdlib/gomodel.hpp"
#include "mdlib/observables.hpp"
#include "mdlib/proteins.hpp"
#include "mdlib/simulation.hpp"
#include "mdlib/units.hpp"
#include "support/md_oracles.hpp"

namespace cop::md {
namespace {

/// Per-bead root-mean-square fluctuation: superimpose every frame onto
/// the first, average them, then superimpose onto that mean structure
/// and accumulate the squared deviations.
std::vector<double> rmsfAboutMean(const Trajectory& trajectory) {
    const auto& ref = trajectory.frame(0).positions;
    std::vector<std::vector<Vec3>> aligned;
    for (const auto& frame : trajectory.frames()) {
        auto pos = frame.positions;
        superimpose(ref, pos);
        aligned.push_back(std::move(pos));
    }
    std::vector<Vec3> mean(ref.size());
    for (const auto& pos : aligned)
        for (std::size_t i = 0; i < mean.size(); ++i) mean[i] += pos[i];
    for (auto& m : mean) m /= double(aligned.size());

    std::vector<double> out(ref.size(), 0.0);
    for (auto& pos : aligned) {
        superimpose(mean, pos);
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] += distance2(pos[i], mean[i]);
    }
    for (auto& v : out) v = std::sqrt(v / double(aligned.size()));
    return out;
}

TEST(GoModel, NativeIsStationaryPoint) {
    const auto model = villinGoModel();
    ForceField ff(model.topology, Box::open(), model.forceFieldParams());
    std::vector<Vec3> forces;
    ff.compute(model.native, forces);
    // Bonded and contact terms vanish exactly; only weak repulsive tails
    // beyond the contact cutoff contribute.
    for (const auto& f : forces) EXPECT_LT(norm(f), 0.2);
}

TEST(GoModel, BondsAngleDihedralCountsForChain) {
    const auto model = buildGoModel(extendedChain(10));
    EXPECT_EQ(model.topology.bonds().size(), 9u);
    EXPECT_EQ(model.topology.angles().size(), 8u);
    EXPECT_EQ(model.topology.dihedrals().size(), 7u);
}

TEST(GoModel, ContactsRespectSequenceSeparationAndCutoff) {
    const auto model = villinGoModel();
    for (const auto& c : model.topology.contacts()) {
        EXPECT_GE(std::abs(c.i - c.j), model.params.minSequenceSeparation);
        EXPECT_LT(c.r0, model.params.contactCutoff);
        const double actual = distance(model.native[std::size_t(c.i)],
                                       model.native[std::size_t(c.j)]);
        EXPECT_NEAR(c.r0, actual, 1e-12);
    }
}

TEST(GoModel, RejectsTinyChains) {
    EXPECT_THROW(buildGoModel({{0, 0, 0}, {1, 0, 0}}), cop::InvalidArgument);
}

TEST(GoModel, TurnsFluctuateMoreThanHelixCores) {
    const auto model = villinGoModel();
    auto sim = Simulation::forGoModel(model, model.native,
                                      villinSimulationConfig(11));
    sim.initializeVelocities();
    sim.run(20000);
    const auto fluct = rmsfAboutMean(sim.trajectory());
    ASSERT_EQ(fluct.size(), 35u);
    // Chain termini and turn regions (residues 10-12, 22-24) move more
    // than the buried middle of helix 2.
    const double turnAvg = (fluct[10] + fluct[11] + fluct[12] + fluct[22] +
                            fluct[23] + fluct[24]) /
                           6.0;
    const double coreAvg = (fluct[16] + fluct[17] + fluct[18]) / 3.0;
    EXPECT_GT(turnAvg, coreAvg);
    for (double v : fluct) {
        EXPECT_GT(v, 0.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Villin, HasThirtyFiveResiduesAndReasonableGeometry) {
    const auto native = villinNativeStructure();
    ASSERT_EQ(native.size(), 35u);
    // Consecutive Calpha distances ~1 sigma (3.8 A).
    for (std::size_t i = 0; i + 1 < native.size(); ++i) {
        const double d = distance(native[i], native[i + 1]);
        EXPECT_GT(d, 0.6) << "residue " << i;
        EXPECT_LT(d, 1.5) << "residue " << i;
    }
    // No steric clashes between non-neighbours.
    for (std::size_t i = 0; i < native.size(); ++i)
        for (std::size_t j = i + 2; j < native.size(); ++j)
            EXPECT_GT(distance(native[i], native[j]), 0.7)
                << i << "," << j;
}

TEST(Villin, IsCompactBundle) {
    const auto native = villinNativeStructure();
    // A folded 35-residue bundle should have Rg ~ 10 A (2.6 sigma); an
    // extended chain is ~3.5x larger.
    const double rgNative = radiusOfGyration(native);
    const double rgExtended = radiusOfGyration(extendedChain(35));
    EXPECT_LT(rgNative, 2.6);
    EXPECT_GT(rgExtended, 2.0 * rgNative);
}

TEST(Villin, HasRichContactMap) {
    const auto model = villinGoModel();
    EXPECT_GE(model.numContacts(), 60u);
    // Contacts must include inter-helix pairs (|i-j| > 12), not just
    // intra-helix i,i+3/i,i+4 pairs — otherwise it is not a bundle.
    std::size_t interHelix = 0;
    for (const auto& c : model.topology.contacts())
        if (std::abs(c.i - c.j) > 12) ++interHelix;
    EXPECT_GE(interHelix, 10u);
}

TEST(Hairpin, GeometryAndContacts) {
    const auto native = hairpinNativeStructure();
    ASSERT_EQ(native.size(), 16u);
    for (std::size_t i = 0; i + 1 < native.size(); ++i) {
        const double d = distance(native[i], native[i + 1]);
        EXPECT_GT(d, 0.5);
        EXPECT_LT(d, 1.6);
    }
    const auto model = hairpinGoModel();
    EXPECT_GE(model.numContacts(), 8u);
    // Cross-strand contacts (|i-j| >= 7) must exist.
    std::size_t cross = 0;
    for (const auto& c : model.topology.contacts())
        if (std::abs(c.i - c.j) >= 7) ++cross;
    EXPECT_GE(cross, 4u);
}

TEST(IdealHelix, RiseAndSpacing) {
    const auto helix = idealHelix(12, {0, 0, 0}, {0, 0, 1});
    for (std::size_t i = 0; i + 1 < helix.size(); ++i) {
        EXPECT_NEAR(distance(helix[i], helix[i + 1]), 1.0, 0.05);
        EXPECT_NEAR(helix[i + 1].z - helix[i].z, 1.5 / 3.8, 1e-9);
    }
    // i, i+4 spacing in an alpha-helix is ~6.2 A = 1.63 sigma.
    EXPECT_NEAR(distance(helix[0], helix[4]), 6.2 / 3.8, 0.15);
}

TEST(IdealHelix, ArbitraryAxis) {
    const Vec3 axis = normalized(Vec3{1, 1, 1});
    const auto helix = idealHelix(8, {1, 2, 3}, axis);
    // Projections on the axis advance by the rise.
    for (std::size_t i = 0; i + 1 < helix.size(); ++i)
        EXPECT_NEAR(dot(helix[i + 1] - helix[i], axis), 1.5 / 3.8, 1e-9);
}

TEST(UnfoldedConformations, DistinctAndFarFromNative) {
    const auto model = villinGoModel();
    const auto confs = makeUnfoldedConformations(model, 4, 2024);
    ASSERT_EQ(confs.size(), 4u);
    for (const auto& c : confs) {
        EXPECT_EQ(c.size(), model.numResidues());
        EXPECT_GT(toAngstrom(rmsd(model.native, c)), 5.0);
    }
    for (std::size_t i = 0; i < confs.size(); ++i)
        for (std::size_t j = i + 1; j < confs.size(); ++j)
            EXPECT_GT(toAngstrom(rmsd(confs[i], confs[j])), 1.0);
}

TEST(UnfoldedConformations, DeterministicInSeed) {
    const auto model = hairpinGoModel();
    const auto a = makeUnfoldedConformations(model, 2, 5);
    const auto b = makeUnfoldedConformations(model, 2, 5);
    for (std::size_t c = 0; c < a.size(); ++c)
        for (std::size_t i = 0; i < a[c].size(); ++i)
            EXPECT_EQ(a[c][i], b[c][i]);
}

TEST(Units, StepNanosecondMapping) {
    EXPECT_DOUBLE_EQ(stepsToNs(kSegmentSteps), 50.0);
    EXPECT_DOUBLE_EQ(nsToSteps(50.0), double(kSegmentSteps));
    EXPECT_DOUBLE_EQ(toAngstrom(1.0), 3.8);
}

} // namespace
} // namespace cop::md
