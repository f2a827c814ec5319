#pragma once

/// \file kernel_params.hpp
/// The contract between the force engine and its nonbonded inner loops:
/// the constant block every kernel consumes (SoaParams) and the
/// function-pointer table a kernel implementation exports
/// (NonbondedKernelSet). This header is included both by forcefield.cpp
/// (the engine that slices buckets across threads) and by the per-ISA
/// kernel translation units, so it must stay plain data: no inline
/// functions, no templates — anything with code in it would be compiled
/// under different -m flags in different TUs and tripped over by the
/// linker's pick-one rule.

#include <cstddef>

namespace cop::md {

/// Constants consumed by the SoA/SIMD inner loops. The lengths and
/// inverse lengths feed the unshifted kernels' minimum-image fixup, which
/// only periodic boxes run: an open (non-periodic) box runs the shifted
/// kernels with every run on code 13, the zero shift. The tab arrays
/// decode per-run shift codes (0..26) into the three components of the
/// run's periodic shift vector.
struct SoaParams {
    double cut2 = 0.0, minR2 = 1e-12;
    double Lx = 0.0, Ly = 0.0, Lz = 0.0;
    double iLx = 0.0, iLy = 0.0, iLz = 0.0;
    double sig2 = 0.0, eps4 = 0.0, eps24 = 0.0, ljShift = 0.0;
    double kRF = 0.0, cRF = 0.0;
    double repSig2 = 0.0, repEps = 0.0;
    double tabX[27] = {}, tabY[27] = {}, tabZ[27] = {};
};

/// One nonbonded inner loop over a slice [rLo, rHi) of a bucket's run
/// table (see PairBuckets). All three interaction families share the
/// signature so a kernel set is a uniform table: `qq` is the per-pair
/// charge-product channel (only read by the LJ+Coulomb family), `rs` the
/// per-run shift codes (only read by shifted kernels), and `ecoul` is
/// left untouched by the chargeless families. SoaParams is passed by
/// value on purpose: through a reference the compiler must assume the
/// force scatter stores (double* f) may alias the parameter block's
/// doubles and reload every constant after each store; a by-value copy's
/// address never escapes the kernel, so the constants stay in registers.
using NbPairKernelFn = void (*)(const int* runI, const int* runStart,
                                const int* pj, const unsigned char* rs,
                                const double* qq, std::size_t rLo,
                                std::size_t rHi, const double* xyz, double* f,
                                const SoaParams k, double& enb,
                                double& ecoul);

/// The six inner loops one kernel implementation provides:
/// {LJ, LJ+Coulomb-RF, Gō-repulsive} x {unshifted, shifted}, indexed by
/// family field and `shifted ? 1 : 0`. `width` is the SIMD lane count the
/// implementation was compiled for (1 for the portable "scalar" set);
/// `name` matches the COPERNICUS_SIMD spelling of the ISA.
struct NonbondedKernelSet {
    const char* name = "";
    int width = 1;
    NbPairKernelFn lj[2] = {nullptr, nullptr};
    NbPairKernelFn ljCoul[2] = {nullptr, nullptr};
    NbPairKernelFn go[2] = {nullptr, nullptr};
};

} // namespace cop::md
