#include "mdlib/forcefield.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include <gtest/gtest.h>

#include "mdlib/evaluators/dihedral.hpp"
#include "mdlib/proteins.hpp"
#include "support/md_oracles.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace cop::md {
namespace {

/// Agreement of the trig-free dihedral with the libm oracle.
constexpr double kDihedralTol = 1e-12;
constexpr double kPi = std::numbers::pi;

/// A small LJ fluid in a periodic box.
struct LjSystem {
    Topology top;
    Box box;
    ForceFieldParams params;
    std::vector<Vec3> positions;
};

LjSystem makeLj(std::size_t n, double boxLen, std::uint64_t seed,
                bool charges = false) {
    LjSystem sys;
    sys.top = Topology();
    cop::Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i)
        sys.top.addParticle(1.0, charges ? (i % 2 ? 0.2 : -0.2) : 0.0);
    sys.top.finalize();
    sys.box = Box::cubic(boxLen);
    sys.params.kind = NonbondedKind::LennardJonesRF;
    sys.params.cutoff = 2.5;
    sys.params.useCoulombRF = charges;
    // Place on a jittered lattice to avoid overlaps.
    const int side = int(std::ceil(std::cbrt(double(n))));
    const double a = boxLen / side;
    std::size_t placed = 0;
    for (int x = 0; x < side && placed < n; ++x)
        for (int y = 0; y < side && placed < n; ++y)
            for (int z = 0; z < side && placed < n; ++z, ++placed)
                sys.positions.push_back(
                    {x * a + rng.uniform(-0.05, 0.05),
                     y * a + rng.uniform(-0.05, 0.05),
                     z * a + rng.uniform(-0.05, 0.05)});
    return sys;
}

TEST(ForceField, GoModelForcesMatchFiniteDifferencesAtNative) {
    const auto model = villinGoModel();
    ForceField ff(model.topology, Box::open(), model.forceFieldParams());
    EXPECT_LT(maxForceError(ff, model.native), 1e-5);
}

TEST(ForceField, GoModelForcesMatchFiniteDifferencesPerturbed) {
    const auto model = villinGoModel();
    ForceField ff(model.topology, Box::open(), model.forceFieldParams());
    cop::Rng rng(3);
    auto pos = model.native;
    for (auto& p : pos) p += rng.gaussianVec3(0.05);
    EXPECT_LT(maxForceError(ff, pos), 1e-4);
}

TEST(ForceField, LennardJonesForcesMatchFiniteDifferences) {
    auto sys = makeLj(27, 6.0, 5);
    ForceField ff(sys.top, sys.box, sys.params);
    EXPECT_LT(maxForceError(ff, sys.positions), 2e-4);
}

TEST(ForceField, ReactionFieldForcesMatchFiniteDifferences) {
    auto sys = makeLj(27, 6.0, 7, /*charges=*/true);
    ForceField ff(sys.top, sys.box, sys.params);
    EXPECT_LT(maxForceError(ff, sys.positions), 2e-4);
}

TEST(ForceField, NewtonsThirdLaw) {
    const auto model = villinGoModel();
    ForceField ff(model.topology, Box::open(), model.forceFieldParams());
    cop::Rng rng(9);
    auto pos = model.native;
    for (auto& p : pos) p += rng.gaussianVec3(0.2);
    std::vector<Vec3> forces;
    ff.compute(pos, forces);
    Vec3 total{};
    for (const auto& f : forces) total += f;
    EXPECT_NEAR(norm(total), 0.0, 1e-9);
}

/// Computes forces/energies for `sys` under the given kernel flavor.
Energies runFlavor(const LjSystem& sys, KernelFlavor flavor,
                   std::vector<Vec3>& forces, cop::ThreadPool* pool = nullptr) {
    auto params = sys.params;
    params.flavor = flavor;
    ForceField ff(sys.top, sys.box, params, pool);
    return ff.compute(sys.positions, forces);
}

void expectFlavorsAgree(const LjSystem& sys, double tol = 1e-10) {
    std::vector<Vec3> fScalar, fBlocked, fSoa;
    const auto eS = runFlavor(sys, KernelFlavor::Scalar, fScalar);
    const auto eB = runFlavor(sys, KernelFlavor::Blocked4, fBlocked);
    const auto eA = runFlavor(sys, KernelFlavor::Soa, fSoa);
    // Blocked4 evaluates the same pairTerm and scatters in the same pair
    // order as Scalar: an exact duplicate, not a rounding-level variant.
    EXPECT_EQ(eS.nonbonded, eB.nonbonded);
    EXPECT_NEAR(eS.nonbonded, eA.nonbonded, tol);
    EXPECT_EQ(eS.coulomb, eB.coulomb);
    EXPECT_NEAR(eS.coulomb, eA.coulomb, tol);
    for (std::size_t i = 0; i < fScalar.size(); ++i) {
        for (int d = 0; d < 3; ++d) EXPECT_EQ(fScalar[i][d], fBlocked[i][d]);
        EXPECT_NEAR(norm(fScalar[i] - fSoa[i]), 0.0, tol);
    }
}

TEST(ForceField, AllKernelFlavorsAgreeOnChargedLJ) {
    expectFlavorsAgree(makeLj(125, 9.0, 19, /*charges=*/true));
}

TEST(ForceField, AllKernelFlavorsAgreeOnUnchargedLJ) {
    expectFlavorsAgree(makeLj(125, 9.0, 23, /*charges=*/false));
}

TEST(ForceField, AllKernelFlavorsAgreeOnGoRepulsive) {
    const auto model = villinGoModel();
    cop::Rng rng(31);
    auto pos = model.native;
    for (auto& p : pos) p += rng.gaussianVec3(0.3);

    std::vector<Vec3> fScalar, fSoa;
    auto scalarParams = model.forceFieldParams();
    scalarParams.flavor = KernelFlavor::Scalar;
    auto soaParams = model.forceFieldParams();
    soaParams.flavor = KernelFlavor::Soa;
    ForceField ffS(model.topology, Box::open(), scalarParams);
    ForceField ffA(model.topology, Box::open(), soaParams);
    const auto eS = ffS.compute(pos, fScalar);
    const auto eA = ffA.compute(pos, fSoa);
    EXPECT_NEAR(eS.nonbonded, eA.nonbonded, 1e-10);
    EXPECT_NEAR(eS.potential(), eA.potential(), 1e-10);
    for (std::size_t i = 0; i < fScalar.size(); ++i)
        EXPECT_NEAR(norm(fScalar[i] - fSoa[i]), 0.0, 1e-10);
}

/// An open box has nothing to image: the SoA engine runs the shifted
/// kernels with every run on code 13, the zero shift, and still agrees
/// with the Scalar reference. A periodic brute-force list keeps the
/// unshifted (per-pair rint) kernels.
TEST(ForceField, OpenBoxRunsZeroShiftBuckets) {
    const auto model = villinGoModel();
    cop::Rng rng(31);
    auto pos = model.native;
    for (auto& p : pos) p += rng.gaussianVec3(0.3);

    auto scalarParams = model.forceFieldParams();
    scalarParams.flavor = KernelFlavor::Scalar;
    ForceField ffS(model.topology, Box::open(), scalarParams);
    std::vector<Vec3> fScalar;
    const auto eS = ffS.compute(pos, fScalar);

    for (const auto& [flavor, tol] :
         {std::pair{KernelFlavor::Soa, 1e-10},
          std::pair{KernelFlavor::SimdAuto, 1e-9}}) {
        SCOPED_TRACE(flavor == KernelFlavor::Soa ? "Soa" : "SimdAuto");
        auto params = model.forceFieldParams();
        params.flavor = flavor;
        ForceField ff(model.topology, Box::open(), params);
        std::vector<Vec3> f;
        const auto e = ff.compute(pos, f);
        const auto& bk = ff.workspace().buckets;
        EXPECT_TRUE(bk.shifted);
        EXPECT_FALSE(bk.wrapped);
        ASSERT_FALSE(bk.goRunS.empty());
        for (const unsigned char code : bk.goRunS) EXPECT_EQ(code, 13);
        EXPECT_NEAR(eS.nonbonded, e.nonbonded, tol);
        for (std::size_t i = 0; i < fScalar.size(); ++i)
            EXPECT_NEAR(norm(fScalar[i] - f[i]), 0.0, tol);
    }

    // boxLen 6 < 3 list cutoffs: brute-force list, periodic, unshifted.
    auto sys = makeLj(61, 6.0, 23, /*charges=*/true);
    sys.params.flavor = KernelFlavor::Soa;
    ForceField periodic(sys.top, sys.box, sys.params);
    std::vector<Vec3> f;
    periodic.compute(sys.positions, f);
    EXPECT_FALSE(periodic.workspace().buckets.shifted);
}

TEST(ForceField, SoaForcesMatchFiniteDifferences) {
    auto sys = makeLj(27, 6.0, 7, /*charges=*/true);
    sys.params.flavor = KernelFlavor::Soa;
    ForceField ff(sys.top, sys.box, sys.params);
    EXPECT_LT(maxForceError(ff, sys.positions), 2e-4);
}

TEST(ForceField, ThreadedSoaMatchesSerialSoa) {
    auto sys = makeLj(343, 12.0, 29, /*charges=*/true);
    sys.params.flavor = KernelFlavor::Soa;
    cop::ThreadPool pool(4);
    std::vector<Vec3> fSerial, fThreaded;
    const auto e1 = runFlavor(sys, KernelFlavor::Soa, fSerial);
    const auto e2 = runFlavor(sys, KernelFlavor::Soa, fThreaded, &pool);
    EXPECT_NEAR(e1.nonbonded, e2.nonbonded, 1e-9);
    EXPECT_NEAR(e1.coulomb, e2.coulomb, 1e-9);
    for (std::size_t i = 0; i < fSerial.size(); ++i)
        EXPECT_NEAR(norm(fSerial[i] - fThreaded[i]), 0.0, 1e-9);
}

TEST(ForceField, ThreadedSoaIsDeterministicAcrossRuns) {
    auto sys = makeLj(343, 12.0, 37, /*charges=*/true);
    sys.params.flavor = KernelFlavor::Soa;
    cop::ThreadPool pool(4);
    std::vector<Vec3> f1, f2;
    ForceField ff(sys.top, sys.box, sys.params, &pool);
    ff.compute(sys.positions, f1);
    ff.compute(sys.positions, f2);
    for (std::size_t i = 0; i < f1.size(); ++i)
        EXPECT_EQ(norm(f1[i] - f2[i]), 0.0);
}

TEST(ForceField, ScalarAndBlockedKernelsAgree) {
    auto sys = makeLj(64, 8.0, 11, /*charges=*/true);
    auto scalarParams = sys.params;
    scalarParams.flavor = KernelFlavor::Scalar;
    auto blockedParams = sys.params;
    blockedParams.flavor = KernelFlavor::Blocked4;
    ForceField ffS(sys.top, sys.box, scalarParams);
    ForceField ffB(sys.top, sys.box, blockedParams);
    std::vector<Vec3> fs, fb;
    const auto es = ffS.compute(sys.positions, fs);
    const auto eb = ffB.compute(sys.positions, fb);
    // Same pairTerm, same scatter order: bit-identical.
    EXPECT_EQ(es.nonbonded, eb.nonbonded);
    EXPECT_EQ(es.coulomb, eb.coulomb);
    for (std::size_t i = 0; i < fs.size(); ++i)
        for (int d = 0; d < 3; ++d) EXPECT_EQ(fs[i][d], fb[i][d]);
}

TEST(ForceField, ThreadedForcesMatchSerial) {
    auto sys = makeLj(343, 12.0, 13); // enough pairs to trigger threading
    cop::ThreadPool pool(4);
    ForceField serial(sys.top, sys.box, sys.params);
    ForceField threaded(sys.top, sys.box, sys.params, &pool);
    std::vector<Vec3> f1, f2;
    const auto e1 = serial.compute(sys.positions, f1);
    const auto e2 = threaded.compute(sys.positions, f2);
    EXPECT_NEAR(e1.nonbonded, e2.nonbonded, 1e-8);
    for (std::size_t i = 0; i < f1.size(); ++i)
        EXPECT_NEAR(norm(f1[i] - f2[i]), 0.0, 1e-9);
}

TEST(ForceField, ShiftedLJIsZeroAtCutoff) {
    Topology top(2);
    top.finalize();
    ForceFieldParams p;
    p.kind = NonbondedKind::LennardJonesRF;
    p.cutoff = 2.5;
    p.shiftLJ = true;
    ForceField ff(top, Box::open(), p);
    std::vector<Vec3> forces;
    const auto e = ff.compute({{0, 0, 0}, {2.4999, 0, 0}}, forces);
    EXPECT_NEAR(e.nonbonded, 0.0, 1e-4);
}

TEST(ForceField, GoEnergyAtNativeIsContactMinimum) {
    const auto model = villinGoModel();
    ForceField ff(model.topology, Box::open(), model.forceFieldParams());
    std::vector<Vec3> forces;
    const auto e = ff.compute(model.native, forces);
    // Bonded terms vanish at native by construction; contacts sit at their
    // minima (-eps each); only tiny repulsive tails remain.
    EXPECT_NEAR(e.bond, 0.0, 1e-20);
    EXPECT_NEAR(e.angle, 0.0, 1e-20);
    EXPECT_NEAR(e.dihedral, 0.0, 1e-18);
    EXPECT_NEAR(e.contact, -double(model.numContacts()), 1e-9);
    EXPECT_LT(e.nonbonded, 0.5);
    EXPECT_GE(e.nonbonded, 0.0);
}

TEST(ForceField, EnergiesPotentialSumsTerms) {
    Energies e;
    e.bond = 1;
    e.angle = 2;
    e.dihedral = 3;
    e.contact = 4;
    e.nonbonded = 5;
    e.coulomb = 6;
    EXPECT_DOUBLE_EQ(e.potential(), 21.0);
}

/// The pre-refactor monolithic computeBonded + computeContacts loops,
/// kept verbatim as the bit-identity reference for the header-only
/// evaluator refactor (evaluators/*.hpp): same term order, same
/// arithmetic, compared with EXPECT_EQ (no tolerance). The dihedral leg
/// is the libm oracle, which the trig-free evaluator matches to rounding
/// (kDihedralTol), not bit for bit; `withDihedrals = false` skips it.
struct MonolithRef {
    double bond = 0.0, angle = 0.0, dihedral = 0.0, contact = 0.0;
};

MonolithRef monolithBonded(const Topology& top, const Box& box,
                           const std::vector<Vec3>& positions,
                           std::vector<Vec3>& forces,
                           bool withDihedrals = true) {
    MonolithRef e;
    for (const auto& b : top.bonds()) {
        const Vec3 d = box.minimumImage(positions[std::size_t(b.i)],
                                        positions[std::size_t(b.j)]);
        const double r = norm(d);
        const double dr = r - b.r0;
        e.bond += 0.5 * b.k * dr * dr;
        if (r > 1e-12) {
            const Vec3 f = d * (-b.k * dr / r);
            forces[std::size_t(b.i)] += f;
            forces[std::size_t(b.j)] -= f;
        }
    }
    for (const auto& a : top.angles()) {
        const Vec3 rij = box.minimumImage(positions[std::size_t(a.i)],
                                          positions[std::size_t(a.j)]);
        const Vec3 rkj = box.minimumImage(positions[std::size_t(a.k)],
                                          positions[std::size_t(a.j)]);
        const double nij = norm(rij);
        const double nkj = norm(rkj);
        if (nij < 1e-12 || nkj < 1e-12) continue;
        double cosTheta = dot(rij, rkj) / (nij * nkj);
        cosTheta = std::clamp(cosTheta, -1.0, 1.0);
        const double theta = std::acos(cosTheta);
        const double dTheta = theta - a.theta0;
        e.angle += 0.5 * a.forceK * dTheta * dTheta;
        const double sinTheta =
            std::sqrt(std::max(1e-12, 1.0 - cosTheta * cosTheta));
        const double coeff = a.forceK * dTheta / sinTheta;
        const Vec3 dcos_dri =
            (rkj / (nij * nkj)) - rij * (cosTheta / (nij * nij));
        const Vec3 dcos_drk =
            (rij / (nij * nkj)) - rkj * (cosTheta / (nkj * nkj));
        const Vec3 fi = dcos_dri * coeff;
        const Vec3 fk = dcos_drk * coeff;
        forces[std::size_t(a.i)] += fi;
        forces[std::size_t(a.k)] += fk;
        forces[std::size_t(a.j)] -= fi + fk;
    }
    if (withDihedrals)
        for (const auto& d : top.dihedrals())
            e.dihedral += dihedralOracle(d, positions, forces);
    for (const auto& c : top.contacts()) {
        const Vec3 d = box.minimumImage(positions[std::size_t(c.i)],
                                        positions[std::size_t(c.j)]);
        const double r2 = norm2(d);
        if (r2 < 1e-12) continue;
        const double inv2 = (c.r0 * c.r0) / r2;
        const double inv10 = inv2 * inv2 * inv2 * inv2 * inv2;
        const double inv12 = inv10 * inv2;
        e.contact += c.eps * (5.0 * inv12 - 6.0 * inv10);
        const double fOverR = 60.0 * c.eps * (inv12 - inv10) / r2;
        const Vec3 f = d * fOverR;
        forces[std::size_t(c.i)] += f;
        forces[std::size_t(c.j)] -= f;
    }
    return e;
}

/// `top` without its dihedral terms (and so without their 1-4
/// exclusions).
Topology withoutDihedrals(const Topology& top) {
    Topology out;
    for (std::size_t i = 0; i < top.numParticles(); ++i)
        out.addParticle(top.mass(i), top.charge(i));
    for (const auto& b : top.bonds()) out.addBond(b);
    for (const auto& a : top.angles()) out.addAngle(a);
    for (const auto& c : top.contacts()) out.addContact(c);
    out.finalize();
    return out;
}

TEST(ForceField, BondedEvaluatorsBitIdenticalToMonolith) {
    const auto model = villinGoModel();
    cop::Rng rng(57);
    auto pos = model.native;
    for (auto& p : pos) p += rng.gaussianVec3(0.15);

    // Shrink the cutoff so every nonbonded pair lands outside it: the
    // kernels then add exact zeros and the ForceField forces are the
    // bonded + contact terms alone.
    auto params = model.forceFieldParams();
    params.cutoff = 1e-3;
    params.neighborSkin = 1e-3;
    ForceField ff(model.topology, Box::open(), params);
    std::vector<Vec3> forces;
    const auto e = ff.compute(pos, forces);
    EXPECT_EQ(e.nonbonded, 0.0);

    std::vector<Vec3> refForces(pos.size(), Vec3{});
    const auto ref =
        monolithBonded(model.topology, Box::open(), pos, refForces);

    EXPECT_EQ(e.bond, ref.bond);
    EXPECT_EQ(e.angle, ref.angle);
    EXPECT_NEAR(e.dihedral, ref.dihedral,
                kDihedralTol * std::max(1.0, std::abs(ref.dihedral)));
    EXPECT_EQ(e.contact, ref.contact);
    for (std::size_t i = 0; i < forces.size(); ++i)
        EXPECT_NEAR(norm(forces[i] - refForces[i]), 0.0,
                    kDihedralTol * std::max(1.0, norm(refForces[i])));

    // The bond, angle and contact forces alone stay bit-identical.
    const Topology noDihedrals = withoutDihedrals(model.topology);
    ForceField ffNoDihedrals(noDihedrals, Box::open(), params);
    std::vector<Vec3> exactForces;
    ffNoDihedrals.compute(pos, exactForces);
    std::vector<Vec3> exactRef(pos.size(), Vec3{});
    monolithBonded(model.topology, Box::open(), pos, exactRef,
                   /*withDihedrals=*/false);
    for (std::size_t i = 0; i < exactForces.size(); ++i)
        for (int d = 0; d < 3; ++d)
            EXPECT_EQ(exactForces[i][d], exactRef[i][d]);
}

/// Four-bead topology with one dihedral term, finalized.
Topology oneDihedral(double phi0, double k1, double k3) {
    Topology top(4);
    top.addDihedral({0, 1, 2, 3, phi0, k1, k3});
    top.finalize();
    return top;
}

/// The trig-free evaluator against the libm oracle, term by term. The
/// energy must agree within kDihedralTol relative to max(|E|, k1 + k3)
/// (the energy's own scale, so absolute near zero); each force component
/// within kDihedralTol relative to the term's force scale,
/// max_a |dphi/dr_a| * (k1 + 3 k3) — at a geometry near a torque-free
/// angle the force itself is near zero while both sides still carry the
/// rounding of the gradient vectors.
TEST(ForceField, DihedralMatchesLibmOracle) {
    cop::Rng rng(2024);
    int degenerate = 0, nearCollinear = 0;
    auto check = [&](const std::vector<Vec3>& pos, const Topology& top) {
        const Dihedral& d = top.dihedrals().front();
        std::vector<Vec3> f(4, Vec3{}), fRef(4, Vec3{});
        const double e = evaluators::DihedralEvaluator::evaluate(
            d, pos, Box::open(), f);
        const double eRef = dihedralOracle(d, pos, fRef);
        const auto g = dihedralOracleGeometry(pos[0], pos[1], pos[2], pos[3]);
        const double gMax = std::max({norm(g.fi), norm(g.fj), norm(g.fk),
                                      norm(g.fl)});
        if (gMax == 0.0) ++degenerate;
        const double eScale =
            std::max(std::abs(eRef), std::abs(d.k1) + std::abs(d.k3));
        const double fScale =
            std::max(1.0, gMax * (std::abs(d.k1) + 3.0 * std::abs(d.k3)));
        EXPECT_NEAR(e, eRef, kDihedralTol * eScale);
        for (std::size_t a = 0; a < 4; ++a)
            for (int c = 0; c < 3; ++c)
                EXPECT_NEAR(f[a][c], fRef[a][c], kDihedralTol * fScale)
                    << "atom " << a;
    };
    auto randomPoint = [&] {
        return Vec3{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                    rng.uniform(-2.0, 2.0)};
    };
    auto randomTerm = [&] {
        return oneDihedral(rng.uniform(-kPi, kPi), rng.uniform(0.1, 2.0),
                           rng.uniform(0.0, 1.0));
    };

    // Random geometries.
    for (int t = 0; t < 2000; ++t)
        check({randomPoint(), randomPoint(), randomPoint(), randomPoint()},
              randomTerm());

    // Near-collinear: the first or last bond almost parallel to the
    // middle one, |n1|^2 or |n2|^2 from ~1e-11 up to ~1e-3.
    for (int t = 0; t < 2000; ++t) {
        const Vec3 rj = randomPoint();
        const Vec3 b2 = randomPoint();
        const Vec3 rk = rj + b2;
        const double eps = std::pow(10.0, rng.uniform(-5.0, -1.5));
        const Vec3 off{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                       rng.uniform(-1.0, 1.0)};
        // The first bond (even t) or the last (odd t) nearly parallel to
        // the middle one.
        const Vec3 nearParallel = b2 * rng.uniform(0.3, 1.5) + off * eps;
        const Vec3 ri = t % 2 == 0 ? rj - nearParallel : rj - randomPoint();
        const Vec3 rl = t % 2 == 0 ? rk + randomPoint() : rk + nearParallel;
        const auto g = dihedralOracleGeometry(ri, rj, rk, rl);
        if (norm(g.fi) > 0.0) ++nearCollinear;
        check({ri, rj, rk, rl}, randomTerm());
    }

    // Degenerate: exactly collinear first or last three beads, and a
    // zero-length middle bond. Both sides give zero force.
    const std::vector<std::vector<Vec3>> degenerateGeometries = {
        {{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {2, 1, 0}},
        {{0, 1, 0}, {0, 0, 0}, {1, 0, 0}, {3, 0, 0}},
        {{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0}},
        {{0, 1, 0}, {1, 0, 0}, {1, 0, 0}, {2, 1, 1}},
        {{0, 0, 0}, {1e-7, 0, 0}, {2e-7, 1e-7, 0}, {3e-7, 0, 1e-7}},
    };
    for (const auto& pos : degenerateGeometries) check(pos, randomTerm());
    EXPECT_GE(degenerate, int(degenerateGeometries.size()));
    EXPECT_GT(nearCollinear, 1000);
}

TEST(ForceField, DihedralForcesMatchFiniteDifferences) {
    // Cutoff below every bead distance: the forces are the one dihedral.
    ForceFieldParams params;
    params.cutoff = 1e-3;
    params.neighborSkin = 1e-3;
    cop::Rng rng(8);
    for (int t = 0; t < 20; ++t) {
        const Topology top = oneDihedral(rng.uniform(-kPi, kPi), 1.0, 0.5);
        ForceField ff(top, Box::open(), params);
        std::vector<Vec3> pos{
            {0, 0, 0}, {1, 0, 0}, {1.3, 0.9, 0}, {2.3, 0.9, 0.5}};
        for (auto& p : pos) p += rng.gaussianVec3(0.2);
        EXPECT_LT(maxForceError(ff, pos), 1e-6);
    }
}

TEST(ForceField, RejectsMismatchedPositions) {
    const auto model = villinGoModel();
    ForceField ff(model.topology, Box::open(), model.forceFieldParams());
    std::vector<Vec3> forces;
    std::vector<Vec3> tooFew(3);
    EXPECT_THROW(ff.compute(tooFew, forces), cop::InvalidArgument);
}

} // namespace
} // namespace cop::md
