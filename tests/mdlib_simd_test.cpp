/// Parity and dispatch tests for the runtime-dispatched SIMD kernel
/// layer (simd.hpp / simd_dispatch.hpp): every kernel set compiled into
/// this binary and runnable on this host is swept against the Scalar
/// reference flavor for both NonbondedKinds, over shifted (cell-built
/// periodic), unshifted-periodic (brute-force rint) and open-box pair
/// lists, with ragged run lengths so every width's remainder-lane tail
/// executes. The documented tolerance for SIMD flavors is 1e-9 (vector
/// accumulators change summation order only); see DESIGN.md. The
/// portable "scalar" set is the one the Soa flavor runs, so SimdAuto
/// pinned to SimdIsa::Scalar must equal Soa bit for bit.

#include <cstdlib>

#include <gtest/gtest.h>

#include "mdlib/forcefield.hpp"
#include "mdlib/proteins.hpp"
#include "mdlib/simd_dispatch.hpp"
#include "support/md_oracles.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace cop::md {
namespace {

constexpr double kSimdTol = 1e-9;

/// RAII guard for the COPERNICUS_SIMD environment variable.
class SimdEnvGuard {
public:
    explicit SimdEnvGuard(const char* value) {
        const char* old = std::getenv("COPERNICUS_SIMD");
        if (old != nullptr) saved_ = old;
        hadOld_ = old != nullptr;
        if (value != nullptr)
            ::setenv("COPERNICUS_SIMD", value, 1);
        else
            ::unsetenv("COPERNICUS_SIMD");
    }
    ~SimdEnvGuard() {
        if (hadOld_)
            ::setenv("COPERNICUS_SIMD", saved_.c_str(), 1);
        else
            ::unsetenv("COPERNICUS_SIMD");
    }

private:
    std::string saved_;
    bool hadOld_ = false;
};

std::vector<SimdIsa> runnableIsas() {
    std::vector<SimdIsa> out;
    for (SimdIsa isa : compiledSimdIsas())
        if (simdIsaRunnable(isa)) out.push_back(isa);
    return out;
}

struct LjSystem {
    Topology top;
    Box box;
    ForceFieldParams params;
    std::vector<Vec3> positions;
};

/// Jittered-lattice LJ fluid. chargeEvery == 0 leaves the fluid neutral
/// (pure lj bucket); chargeEvery == 1 charges everything (pure ljCoul
/// bucket); chargeEvery >= 2 populates BOTH buckets so one compute()
/// sweeps two kernel families at once. A prime-ish n gives ragged
/// per-run pair counts, so every SIMD width exercises its remainder
/// tail.
LjSystem makeLj(std::size_t n, double boxLen, std::uint64_t seed,
                int chargeEvery = 0) {
    LjSystem sys;
    cop::Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        const bool charged =
            chargeEvery > 0 && (i % std::size_t(chargeEvery)) == 0;
        sys.top.addParticle(1.0, charged ? (i % 2 ? 0.2 : -0.2) : 0.0);
    }
    sys.top.finalize();
    sys.box = Box::cubic(boxLen);
    sys.params.kind = NonbondedKind::LennardJonesRF;
    sys.params.cutoff = 2.5;
    sys.params.useCoulombRF = chargeEvery > 0;
    const int side = int(std::ceil(std::cbrt(double(n))));
    const double a = boxLen / side;
    std::size_t placed = 0;
    for (int x = 0; x < side && placed < n; ++x)
        for (int y = 0; y < side && placed < n; ++y)
            for (int z = 0; z < side && placed < n; ++z, ++placed)
                sys.positions.push_back({x * a + rng.uniform(-0.05, 0.05),
                                         y * a + rng.uniform(-0.05, 0.05),
                                         z * a + rng.uniform(-0.05, 0.05)});
    return sys;
}

Energies runWith(const LjSystem& sys, KernelFlavor flavor, SimdIsa isa,
                 std::vector<Vec3>& forces, cop::ThreadPool* pool = nullptr) {
    auto params = sys.params;
    params.flavor = flavor;
    params.simdIsa = isa;
    ForceField ff(sys.top, sys.box, params, pool);
    return ff.compute(sys.positions, forces);
}

/// Every energy and force component of `a` equals `b`'s exactly.
void expectIdentical(const Energies& ea, const std::vector<Vec3>& fa,
                     const Energies& eb, const std::vector<Vec3>& fb) {
    EXPECT_EQ(ea.nonbonded, eb.nonbonded);
    EXPECT_EQ(ea.coulomb, eb.coulomb);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i)
        for (int d = 0; d < 3; ++d)
            EXPECT_EQ(fa[i][d], fb[i][d]) << "particle " << i << " dim " << d;
}

void expectIsaMatchesScalar(const LjSystem& sys, SimdIsa isa) {
    SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
    std::vector<Vec3> fRef, fSimd;
    const auto eRef = runWith(sys, KernelFlavor::Scalar, SimdIsa::Auto, fRef);
    const auto eSimd = runWith(sys, KernelFlavor::SimdAuto, isa, fSimd);
    EXPECT_NEAR(eRef.nonbonded, eSimd.nonbonded, kSimdTol);
    EXPECT_NEAR(eRef.coulomb, eSimd.coulomb, kSimdTol);
    ASSERT_EQ(fRef.size(), fSimd.size());
    for (std::size_t i = 0; i < fRef.size(); ++i)
        EXPECT_NEAR(norm(fRef[i] - fSimd[i]), 0.0, kSimdTol);
    if (isa == SimdIsa::Scalar) {
        std::vector<Vec3> fSoa;
        const auto eSoa =
            runWith(sys, KernelFlavor::Soa, SimdIsa::Auto, fSoa);
        expectIdentical(eSoa, fSoa, eSimd, fSimd);
    }
}

// ---- parity sweeps: every runnable ISA x both kinds x list shapes ----

TEST(SimdKernels, MatchScalarOnShiftedChargedLJ) {
    // boxLen 9 >= 3 list cutoffs: cell-built list, shifted kernels.
    const auto sys = makeLj(125, 9.0, 19, /*chargeEvery=*/1);
    for (SimdIsa isa : runnableIsas()) expectIsaMatchesScalar(sys, isa);
}

TEST(SimdKernels, MatchScalarOnMixedChargeBuckets) {
    // chargeEvery=3: lj and ljCoul buckets both populated; n=113 prime
    // for maximally ragged remainder lanes.
    const auto sys = makeLj(113, 9.0, 41, /*chargeEvery=*/3);
    for (SimdIsa isa : runnableIsas()) expectIsaMatchesScalar(sys, isa);
}

TEST(SimdKernels, MatchScalarOnUnshiftedPeriodicLJ) {
    // boxLen 6 < 3 list cutoffs: brute-force list, per-pair rint imaging.
    const auto sys = makeLj(61, 6.0, 23, /*chargeEvery=*/2);
    for (SimdIsa isa : runnableIsas()) expectIsaMatchesScalar(sys, isa);
}

TEST(SimdKernels, MatchScalarOnGoRepulsiveOpenBox) {
    const auto model = villinGoModel();
    cop::Rng rng(31);
    auto pos = model.native;
    for (auto& p : pos) p += rng.gaussianVec3(0.3);

    auto scalarParams = model.forceFieldParams();
    scalarParams.flavor = KernelFlavor::Scalar;
    ForceField ffRef(model.topology, Box::open(), scalarParams);
    std::vector<Vec3> fRef;
    const auto eRef = ffRef.compute(pos, fRef);

    for (SimdIsa isa : runnableIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        auto params = model.forceFieldParams();
        params.flavor = KernelFlavor::SimdAuto;
        params.simdIsa = isa;
        ForceField ff(model.topology, Box::open(), params);
        std::vector<Vec3> f;
        const auto e = ff.compute(pos, f);
        EXPECT_NEAR(eRef.nonbonded, e.nonbonded, kSimdTol);
        for (std::size_t i = 0; i < fRef.size(); ++i)
            EXPECT_NEAR(norm(fRef[i] - f[i]), 0.0, kSimdTol);
        if (isa == SimdIsa::Scalar) {
            auto soaParams = model.forceFieldParams();
            soaParams.flavor = KernelFlavor::Soa;
            ForceField ffSoa(model.topology, Box::open(), soaParams);
            std::vector<Vec3> fSoa;
            const auto eSoa = ffSoa.compute(pos, fSoa);
            expectIdentical(eSoa, fSoa, e, f);
        }
    }
}

TEST(SimdKernels, RemainderLanesOnTinySystems) {
    // n below every pack width and just around it: runs of 0..a few
    // pairs, so W-wide blocks rarely or never execute and the scalar
    // tail carries the whole answer.
    for (std::size_t n : {2u, 3u, 5u, 9u, 17u}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto sys = makeLj(n, 6.0, 100 + n, /*chargeEvery=*/2);
        for (SimdIsa isa : runnableIsas()) expectIsaMatchesScalar(sys, isa);
    }
}

TEST(SimdKernels, SimdAutoForcesMatchFiniteDifferences) {
    auto sys = makeLj(27, 6.0, 7, /*chargeEvery=*/1);
    sys.params.flavor = KernelFlavor::SimdAuto;
    ForceField ff(sys.top, sys.box, sys.params);
    EXPECT_LT(maxForceError(ff, sys.positions), 2e-4);
}

TEST(SimdKernels, ThreadedSimdAutoMatchesSerial) {
    const auto sys = makeLj(343, 12.0, 29, /*chargeEvery=*/1);
    cop::ThreadPool pool(4);
    std::vector<Vec3> fSerial, fThreaded;
    const auto e1 = runWith(sys, KernelFlavor::SimdAuto, SimdIsa::Auto,
                            fSerial);
    const auto e2 = runWith(sys, KernelFlavor::SimdAuto, SimdIsa::Auto,
                            fThreaded, &pool);
    EXPECT_NEAR(e1.nonbonded, e2.nonbonded, kSimdTol);
    EXPECT_NEAR(e1.coulomb, e2.coulomb, kSimdTol);
    for (std::size_t i = 0; i < fSerial.size(); ++i)
        EXPECT_NEAR(norm(fSerial[i] - fThreaded[i]), 0.0, kSimdTol);

    // The threaded Soa engine and SimdAuto pinned to the portable set
    // slice the same width-1 kernels identically.
    std::vector<Vec3> fSoa, fScalar;
    const auto eSoa =
        runWith(sys, KernelFlavor::Soa, SimdIsa::Auto, fSoa, &pool);
    const auto eScalar =
        runWith(sys, KernelFlavor::SimdAuto, SimdIsa::Scalar, fScalar, &pool);
    expectIdentical(eSoa, fSoa, eScalar, fScalar);
}

// ---- dispatch policy ----

TEST(SimdDispatch, ScalarIsAlwaysCompiledAndRunnable) {
    const auto& compiled = compiledSimdIsas();
    ASSERT_FALSE(compiled.empty());
    EXPECT_EQ(compiled.front(), SimdIsa::Scalar);
    EXPECT_TRUE(simdIsaRunnable(SimdIsa::Scalar));
}

TEST(SimdDispatch, DetectReturnsRunnableIsa) {
    const SimdIsa isa = detectSimdIsa();
    EXPECT_NE(isa, SimdIsa::Auto);
    EXPECT_TRUE(simdIsaRunnable(isa));
}

TEST(SimdDispatch, NamesRoundTrip) {
    for (SimdIsa isa : compiledSimdIsas())
        EXPECT_EQ(parseSimdIsaName(simdIsaName(isa)), isa);
    EXPECT_EQ(parseSimdIsaName("auto"), SimdIsa::Auto);
    EXPECT_EQ(parseSimdIsaName("generic"), SimdIsa::Scalar);
    EXPECT_THROW(parseSimdIsaName("bogus"), cop::InvalidArgument);
}

TEST(SimdDispatch, KernelSetWidthsArePositiveAndNamed) {
    for (SimdIsa isa : runnableIsas()) {
        const auto& ks = kernelSetFor(isa);
        EXPECT_GE(ks.width, 1);
        EXPECT_STREQ(ks.name, simdIsaName(isa));
        for (int sh = 0; sh < 2; ++sh) {
            EXPECT_NE(ks.lj[sh], nullptr);
            EXPECT_NE(ks.ljCoul[sh], nullptr);
            EXPECT_NE(ks.go[sh], nullptr);
        }
    }
}

TEST(SimdDispatch, NonRunnableExplicitRequestThrows) {
    const auto sys = makeLj(8, 6.0, 3);
    bool anyNonRunnable = false;
    for (SimdIsa isa :
         {SimdIsa::Sse2, SimdIsa::Avx2, SimdIsa::Avx512, SimdIsa::Neon}) {
        if (simdIsaRunnable(isa)) continue;
        anyNonRunnable = true;
        auto params = sys.params;
        params.flavor = KernelFlavor::SimdAuto;
        params.simdIsa = isa;
        EXPECT_THROW(ForceField(sys.top, sys.box, params),
                     cop::InvalidArgument)
            << simdIsaName(isa);
    }
    if (!anyNonRunnable) GTEST_SKIP() << "host runs every compiled ISA";
}

TEST(SimdDispatch, EnvVarOverridesAutoResolution) {
    SimdEnvGuard env("scalar");
    const auto sys = makeLj(27, 6.0, 5, /*chargeEvery=*/1);
    auto params = sys.params;
    params.flavor = KernelFlavor::SimdAuto;
    ForceField ff(sys.top, sys.box, params);
    EXPECT_EQ(ff.activeSimdIsa(), SimdIsa::Scalar);
    EXPECT_STREQ(ff.kernelSet().name, "scalar");
    // And the override still computes correct forces.
    std::vector<Vec3> fRef, fEnv;
    runWith(sys, KernelFlavor::Scalar, SimdIsa::Auto, fRef);
    ff.compute(sys.positions, fEnv);
    for (std::size_t i = 0; i < fRef.size(); ++i)
        EXPECT_NEAR(norm(fRef[i] - fEnv[i]), 0.0, kSimdTol);
}

TEST(SimdDispatch, ExplicitParamBeatsEnvVar) {
    // Explicit simdIsa pins the kernel regardless of the environment, so
    // a CI job exporting COPERNICUS_SIMD=scalar cannot silently change
    // what an ISA-pinned test measures.
    const SimdIsa widest = detectSimdIsa();
    SimdEnvGuard env("scalar");
    const auto sys = makeLj(8, 6.0, 3);
    auto params = sys.params;
    params.flavor = KernelFlavor::SimdAuto;
    params.simdIsa = widest;
    ForceField ff(sys.top, sys.box, params);
    EXPECT_EQ(ff.activeSimdIsa(), widest);
}

TEST(SimdDispatch, BadEnvVarThrows) {
    SimdEnvGuard env("pentium-mmx");
    const auto sys = makeLj(8, 6.0, 3);
    auto params = sys.params;
    params.flavor = KernelFlavor::SimdAuto;
    EXPECT_THROW(ForceField(sys.top, sys.box, params), cop::InvalidArgument);
}

TEST(SimdDispatch, EnvVarAutoFallsThroughToDetection) {
    SimdEnvGuard env("auto");
    const auto sys = makeLj(8, 6.0, 3);
    auto params = sys.params;
    params.flavor = KernelFlavor::SimdAuto;
    ForceField ff(sys.top, sys.box, params);
    EXPECT_EQ(ff.activeSimdIsa(), detectSimdIsa());
}

TEST(SimdDispatch, NonSimdFlavorsUseScalarWidthOneSet) {
    const auto sys = makeLj(8, 6.0, 3);
    ForceField ff(sys.top, sys.box, sys.params); // default flavor: Soa
    EXPECT_EQ(ff.activeSimdIsa(), SimdIsa::Scalar);
    EXPECT_EQ(ff.kernelSet().width, 1);
    EXPECT_STREQ(ff.kernelSet().name, "scalar");
    // The very table SimdAuto installs for SimdIsa::Scalar.
    const auto& scalar = kernelSetFor(SimdIsa::Scalar);
    for (int sh = 0; sh < 2; ++sh) {
        EXPECT_EQ(ff.kernelSet().lj[sh], scalar.lj[sh]);
        EXPECT_EQ(ff.kernelSet().ljCoul[sh], scalar.ljCoul[sh]);
        EXPECT_EQ(ff.kernelSet().go[sh], scalar.go[sh]);
    }
}

} // namespace
} // namespace cop::md
