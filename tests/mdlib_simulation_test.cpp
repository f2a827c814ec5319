#include "mdlib/simulation.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include <gtest/gtest.h>

#include "mdlib/proteins.hpp"
#include "mdlib/pdb.hpp"

namespace cop::md {
namespace {

Simulation makeSim(std::uint64_t seed = 1, std::int64_t sampleInterval = 10) {
    const auto model = hairpinGoModel();
    SimulationConfig cfg;
    cfg.integrator.kind = IntegratorKind::LangevinBAOAB;
    cfg.integrator.temperature = 0.5;
    cfg.integrator.friction = 0.5;
    cfg.sampleInterval = sampleInterval;
    cfg.seed = seed;
    auto sim = Simulation::forGoModel(model, model.native, cfg);
    sim.initializeVelocities();
    return sim;
}

TEST(Simulation, RecordsFramesAtSampleInterval) {
    auto sim = makeSim(1, 10);
    sim.run(100);
    // Initial frame + one every 10 steps.
    EXPECT_EQ(sim.trajectory().numFrames(), 11u);
    EXPECT_EQ(sim.trajectory().frame(0).step, 0);
    EXPECT_EQ(sim.trajectory().frame(10).step, 100);
}

TEST(Simulation, RunsAcrossMultipleCalls) {
    auto sim = makeSim(2, 25);
    sim.run(50);
    sim.run(50);
    EXPECT_EQ(sim.state().step, 100);
    EXPECT_EQ(sim.trajectory().numFrames(), 5u); // 0,25,50,75,100
}

TEST(Simulation, CheckpointRestoreContinuesBitExact) {
    // The §2.3 guarantee: a command continued from a checkpoint on another
    // worker produces exactly the same trajectory.
    auto simA = makeSim(3, 10);
    simA.run(40);
    const auto blob = simA.checkpoint();
    simA.run(60);

    auto simB = Simulation::restore(blob);
    simB.run(60);

    ASSERT_EQ(simA.state().numParticles(), simB.state().numParticles());
    EXPECT_EQ(simA.state().step, simB.state().step);
    for (std::size_t i = 0; i < simA.state().numParticles(); ++i) {
        EXPECT_EQ(simA.state().positions[i], simB.state().positions[i]);
        EXPECT_EQ(simA.state().velocities[i], simB.state().velocities[i]);
    }
    EXPECT_EQ(simA.trajectory().numFrames(), simB.trajectory().numFrames());
}

std::uint64_t fnv1a(const std::uint8_t* bytes, std::size_t n) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t fnv1a(const std::vector<Vec3>& xs) {
    static_assert(sizeof(Vec3) == 3 * sizeof(double));
    return fnv1a(reinterpret_cast<const std::uint8_t*>(xs.data()),
                 xs.size() * sizeof(Vec3));
}

/// One production villin segment (villinSimulationConfig, default Soa
/// kernels, Langevin BAOAB) from the extended chain, with every output
/// pinned by FNV-1a hash: the final positions, the final velocities and
/// the checkpoint bytes (which add the recorded frames and the RNG
/// state). Any change to the force field's arithmetic, the neighbour
/// list, the integrator's update order or its Gaussian draw order moves
/// these; a change that claims to be bit-identical must leave them alone,
/// and one that moves them on purpose restates them here.
TEST(Simulation, VillinTrajectoryGoldenDigest) {
    const auto model = villinGoModel();
    auto sim = Simulation::forGoModel(model,
                                      extendedChain(model.native.size()),
                                      villinSimulationConfig(2011));
    sim.initializeVelocities();
    sim.run(kSegmentSteps);
    const auto blob = sim.checkpoint();

    const std::uint64_t got[3] = {fnv1a(sim.state().positions),
                                  fnv1a(sim.state().velocities),
                                  fnv1a(blob.data(), blob.size())};
    const std::uint64_t pinned[3] = {0x18b9abdb798642a7ull,
                                     0xd998b9b57c8320feull,
                                     0x726073858f49b6cbull};
    const char* names[3] = {"positions", "velocities", "checkpoint"};
    for (int k = 0; k < 3; ++k) {
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llx",
                      static_cast<unsigned long long>(got[k]));
        EXPECT_EQ(got[k], pinned[k]) << names[k] << " hash is " << hex;
    }
}

TEST(Simulation, CheckpointPreservesConfigAndTopology) {
    auto sim = makeSim(4, 7);
    sim.run(21);
    const auto blob = sim.checkpoint();
    auto restored = Simulation::restore(blob);
    EXPECT_EQ(restored.topology().numParticles(),
              sim.topology().numParticles());
    EXPECT_EQ(restored.state().step, 21);
    EXPECT_NEAR(restored.state().time, sim.state().time, 0.0);
}

TEST(Simulation, RestoreRejectsOutOfRangeFields) {
    // A checkpoint is untrusted bytes. An out-of-range enum would restore
    // into a run that never moves a bead (integrator kind) or silently
    // swaps kernels (flavor), so restore must fail with IoError instead.
    // Each field's offset is where two checkpoints differing only in that
    // field first differ.
    const auto model = hairpinGoModel();
    using Edit = void (*)(SimulationConfig&, ForceFieldParams&);
    auto blobWith = [&](Edit edit) {
        SimulationConfig cfg;
        ForceFieldParams ffp = model.forceFieldParams();
        if (edit) edit(cfg, ffp);
        return Simulation(model.topology, Box::open(), ffp, cfg,
                          model.native)
            .checkpoint();
    };
    struct Field {
        const char* name;
        Edit edit;
        std::size_t bytes;
        std::vector<std::int64_t> bad;
    };
    const Field fields[] = {
        {"nonbonded kind",
         [](SimulationConfig&, ForceFieldParams& p) {
             p.kind = NonbondedKind::LennardJonesRF;
         },
         4, {-1, 2}},
        {"kernel flavor",
         [](SimulationConfig&, ForceFieldParams& p) {
             p.flavor = KernelFlavor::Scalar;
         },
         4, {-1, 4}},
        {"integrator kind",
         [](SimulationConfig& c, ForceFieldParams&) {
             c.integrator.kind = IntegratorKind::VelocityVerlet;
         },
         // 1 is the retired leapfrog tag: in range, but no integrator.
         4, {-1, 1, 3, 7}},
        {"thermostat kind",
         [](SimulationConfig& c, ForceFieldParams&) {
             c.integrator.thermostat = ThermostatKind::NoseHoover;
         },
         4, {-1, 2}},
        {"sample interval",
         [](SimulationConfig& c, ForceFieldParams&) {
             c.sampleInterval = 51;
         },
         8, {0, -1}},
    };

    const auto base = blobWith(nullptr);
    EXPECT_NO_THROW(Simulation::restore(base));
    for (const auto& field : fields) {
        SCOPED_TRACE(field.name);
        const auto other = blobWith(field.edit);
        ASSERT_EQ(other.size(), base.size());
        const auto offset = std::size_t(
            std::mismatch(base.begin(), base.end(), other.begin()).first -
            base.begin());
        ASSERT_LT(offset, base.size());
        for (const std::int64_t bad : field.bad) {
            auto patched = base;
            if (field.bytes == 4) {
                const auto v = std::int32_t(bad);
                std::memcpy(patched.data() + offset, &v, sizeof v);
            } else {
                std::memcpy(patched.data() + offset, &bad, sizeof bad);
            }
            EXPECT_THROW(Simulation::restore(patched), cop::IoError)
                << "value " << bad;
        }
    }
}

TEST(Simulation, TakeTrajectoryLeavesEmpty) {
    auto sim = makeSim(5, 10);
    sim.run(30);
    auto traj = sim.takeTrajectory();
    EXPECT_EQ(traj.numFrames(), 4u);
    EXPECT_TRUE(sim.trajectory().empty());
    sim.run(10);
    // A fresh initial frame is recorded when the trajectory restarts.
    EXPECT_EQ(sim.trajectory().numFrames(), 2u);
}

TEST(Simulation, RejectsBadConfig) {
    const auto model = hairpinGoModel();
    SimulationConfig cfg;
    cfg.sampleInterval = 0;
    EXPECT_THROW(Simulation::forGoModel(model, model.native, cfg),
                 cop::InvalidArgument);
    SimulationConfig ok;
    EXPECT_THROW(
        Simulation(model.topology, Box::open(), model.forceFieldParams(),
                   ok, std::vector<Vec3>(3)),
        cop::InvalidArgument);
}

TEST(Trajectory, ExtendAppendsFrames) {
    Trajectory t;
    for (int i = 0; i < 10; ++i)
        t.append(i, i * 0.1, std::vector<Vec3>{{double(i), 0, 0}});

    Trajectory more;
    more.append(10, 1.0, std::vector<Vec3>{{10, 0, 0}});
    t.extend(more);
    EXPECT_EQ(t.numFrames(), 11u);
    EXPECT_EQ(t.back().step, 10);
}

TEST(Trajectory, SerializationRoundTrip) {
    Trajectory t;
    t.append(5, 0.5, std::vector<Vec3>{{1, 2, 3}, {4, 5, 6}});
    cop::BinaryWriter w;
    t.serialize(w);
    cop::BinaryReader r(w.buffer());
    const auto t2 = Trajectory::deserialize(r);
    ASSERT_EQ(t2.numFrames(), 1u);
    EXPECT_EQ(t2.frame(0).step, 5);
    EXPECT_EQ(t2.frame(0).positions[1], Vec3(4, 5, 6));
}

TEST(Trajectory, RejectsInconsistentFrames) {
    Trajectory t;
    t.append(0, 0.0, std::vector<Vec3>{{1, 2, 3}});
    EXPECT_THROW(t.append(1, 0.1, std::vector<Vec3>{{1, 2, 3}, {4, 5, 6}}),
                 cop::InvalidArgument);
    EXPECT_THROW(t.append(Frame{}), cop::InvalidArgument);
}

TEST(State, SerializationRoundTrip) {
    State s;
    s.resize(2);
    s.positions = {{1, 2, 3}, {4, 5, 6}};
    s.velocities = {{0.1, 0.2, 0.3}, {0, 0, 0}};
    s.step = 42;
    s.time = 0.42;
    s.nhXi = 0.7;
    cop::BinaryWriter w;
    s.serialize(w);
    cop::BinaryReader r(w.buffer());
    EXPECT_EQ(State::deserialize(r), s);
}


TEST(Pdb, RendersAtomRecords) {
    const auto native = hairpinNativeStructure();
    const auto pdb = pdbString(native, "hairpin");
    EXPECT_NE(pdb.find("TITLE     hairpin"), std::string::npos);
    EXPECT_NE(pdb.find("ATOM      1  CA  ALA A   1"), std::string::npos);
    EXPECT_NE(pdb.find("END"), std::string::npos);
    // One ATOM line per residue.
    std::size_t atoms = 0, at = 0;
    while ((at = pdb.find("ATOM  ", at)) != std::string::npos) {
        ++atoms;
        at += 6;
    }
    EXPECT_EQ(atoms, native.size());
}

TEST(Pdb, MultiModelOutput) {
    const auto native = hairpinNativeStructure();
    const auto pdb =
        pdbString(std::vector<std::vector<Vec3>>{native, native}, "two");
    EXPECT_NE(pdb.find("MODEL        1"), std::string::npos);
    EXPECT_NE(pdb.find("MODEL        2"), std::string::npos);
    EXPECT_NE(pdb.find("ENDMDL"), std::string::npos);
}

} // namespace
} // namespace cop::md
