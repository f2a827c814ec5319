#pragma once

/// \file simd_kernels_impl.hpp
/// The nonbonded inner loops, written once as width-templated kernels
/// over SimdPack and stamped out per ISA. Each kernels_<isa>.cpp TU
/// defines COP_SIMD_ARCH_NS (its private namespace), COP_SIMD_WIDTH (its
/// pack width) and a COP_SIMD_TARGET_<ISA> macro, then includes this
/// header and exports a NonbondedKernelSet factory. Nothing here may be
/// referenced from outside the including TU except through the function
/// pointers in that set — the TUs are compiled with different -m flags
/// and their symbols must never be merged (see simd.hpp).
///
/// Loop shape: per run, broadcast the (shift-folded) i position; walk the
/// run's j pairs W at a time with lane-wise triplet loads; compute the
/// minimum image (unshifted lists only), the branch-free cutoff select
/// (out-of-range lanes get keep = 0 and r2 replaced by cut2 so the
/// divide stays finite), and the family's force/energy math on whole
/// packs; accumulate the i force and the energies in vector registers;
/// scatter the j forces through the pack's scatterSub3 (per-lane
/// read-modify-writes; j indices are distinct within a run, so a
/// block's lanes never collide); finish the run's remainder (< W
/// pairs) as one more block with the dead lanes folded into the cutoff
/// mask. At W = 1 (the set the Soa flavor runs) the pack is a plain
/// scalar loop, operation for operation; wider sets reduce their vector
/// accumulators once per slice, so they differ from it only by summation
/// order and the packs' documented recip/rsqrt refinement — covered by
/// the parity tolerance.

#include <cstddef>

#include "mdlib/kernel_params.hpp"
#include "mdlib/simd.hpp"

#ifndef COP_SIMD_WIDTH
#error "kernels_<isa>.cpp must define COP_SIMD_WIDTH before including simd_kernels_impl.hpp"
#endif

namespace cop::md::simd {
namespace COP_SIMD_ARCH_NS {

enum class Family { Lj, LjCoul, Go };

template <Family F, bool Shifted>
void pairKernel(const int* runI, const int* runStart, const int* pj,
                const unsigned char* rs, const double* qq, std::size_t rLo,
                std::size_t rHi, const double* xyz, double* f,
                const SoaParams k, double& enbOut, double& ecoulOut) {
    using P = SimdPack<COP_SIMD_WIDTH>;
    constexpr int W = COP_SIMD_WIDTH;

    const P vCut2 = P::broadcast(k.cut2);
    const P vMinR2 = P::broadcast(k.minR2);
    const P vOne = P::broadcast(1.0);
    const P vZero = P::zero();
    const P vLx = P::broadcast(k.Lx), vLy = P::broadcast(k.Ly),
            vLz = P::broadcast(k.Lz);
    const P viLx = P::broadcast(k.iLx), viLy = P::broadcast(k.iLy),
            viLz = P::broadcast(k.iLz);
    const P vSig2 = P::broadcast(F == Family::Go ? k.repSig2 : k.sig2);
    const P vEps4 = P::broadcast(k.eps4), vEps24 = P::broadcast(k.eps24);
    const P vLjShift = P::broadcast(k.ljShift);
    const P vTwo = P::broadcast(2.0);
    const P vRepEps = P::broadcast(k.repEps);
    const P vRepEps12 = P::broadcast(12.0 * k.repEps);
    const P vKrf = P::broadcast(k.kRF), vCrf = P::broadcast(k.cRF);
    const P vKrf2 = P::broadcast(2.0 * k.kRF);

    P eAcc = P::zero(), ecAcc = P::zero();

    for (std::size_t r = rLo; r < rHi; ++r) {
        const std::size_t i3 = 3 * std::size_t(runI[r]);
        double xi = xyz[i3], yi = xyz[i3 + 1], zi = xyz[i3 + 2];
        if constexpr (Shifted) {
            const unsigned c = rs[r];
            xi += k.tabX[c];
            yi += k.tabY[c];
            zi += k.tabZ[c];
        }
        const P vxi = P::broadcast(xi), vyi = P::broadcast(yi),
                vzi = P::broadcast(zi);
        P fxAcc = P::zero(), fyAcc = P::zero(), fzAcc = P::zero();

        // One block of W pairs at offset p. Tail blocks (the final
        // < W pairs of a run) run the same vector arithmetic with the
        // out-of-run lanes masked off: splitPairBuckets over-allocates
        // the j / qq channels by a vector width of culled sentinel
        // entries, so the full-width channel loads stay in-bounds, and
        // the tail scatter writes back only the live lanes.
        auto block = [&]<bool Tail>(std::size_t p, int tail) {
            P xj, yj, zj;
            P::gather3(xyz, pj + p, xj, yj, zj);
            P dx = vxi - xj, dy = vyi - yj, dz = vzi - zj;
            if constexpr (!Shifted) {
                dx = dx - vLx * P::rint(dx * viLx);
                dy = dy - vLy * P::rint(dy * viLy);
                dz = dz - vLz * P::rint(dz * viLz);
            }
            const P r2 = dx * dx + dy * dy + dz * dz;
            typename P::Mask in =
                P::maskAnd(P::cmpLe(r2, vCut2), P::cmpGe(r2, vMinR2));
            if constexpr (Tail) in = P::maskAnd(in, P::tailMask(tail));
            const P keep = P::select(in, vOne, vZero);
            const P r2s = P::select(in, r2, vCut2);
            const P inv2 = P::recip(r2s);
            const P s2 = vSig2 * inv2;
            const P s6 = s2 * s2 * s2;
            const P s12 = s6 * s6;

            // keep leads each product where it can: keep * c is 0 or the
            // constant c itself, so at W = 1 the compiler folds it into
            // the cutoff branch instead of multiplying every pair.
            P fOverR;
            if constexpr (F == Family::Go) {
                eAcc += keep * vRepEps * s12;
                fOverR = keep * vRepEps12 * s12 * inv2;
            } else {
                eAcc += keep * (vEps4 * (s12 - s6) - vLjShift);
                if constexpr (F == Family::LjCoul) {
                    const P fLj = vEps24 * (vTwo * s12 - s6) * inv2;
                    const P vqq = P::load(qq + p);
                    const P invR = P::rsqrt(r2s);
                    ecAcc += keep * vqq * (invR + vKrf * r2s - vCrf);
                    fOverR = keep * (fLj + vqq * (invR * inv2 - vKrf2));
                } else {
                    fOverR = keep * vEps24 * (vTwo * s12 - s6) * inv2;
                }
            }

            const P fxp = dx * fOverR, fyp = dy * fOverR, fzp = dz * fOverR;
            fxAcc += fxp;
            fyAcc += fyp;
            fzAcc += fzp;

            if constexpr (!Tail) {
                P::scatterSub3(f, pj + p, fxp, fyp, fzp);
            } else {
                // Spill and write back the live lanes only: masked lanes
                // may point at sentinel slots (or, in the threaded path,
                // at runs owned by another slice) and must not be touched.
                alignas(64) double sx[W], sy[W], sz[W];
                fxp.store(sx);
                fyp.store(sy);
                fzp.store(sz);
                for (int l = 0; l < tail; ++l) {
                    const std::size_t j3 =
                        3 * std::size_t(pj[p + std::size_t(l)]);
                    f[j3] -= sx[l];
                    f[j3 + 1] -= sy[l];
                    f[j3 + 2] -= sz[l];
                }
            }
        };

        std::size_t p = std::size_t(runStart[r]);
        const std::size_t pEnd = std::size_t(runStart[r + 1]);
        for (; p + W <= pEnd; p += W)
            block.template operator()<false>(p, W);
        // Width 1 has no remainder; the dead block would bloat the kernel.
        if constexpr (W > 1)
            if (p < pEnd) block.template operator()<true>(p, int(pEnd - p));

        f[i3] += fxAcc.hsum();
        f[i3 + 1] += fyAcc.hsum();
        f[i3 + 2] += fzAcc.hsum();
    }

    enbOut += eAcc.hsum();
    if constexpr (F == Family::LjCoul) ecoulOut += ecAcc.hsum();
}

/// Assembles the exported kernel table for this TU's ISA.
inline NonbondedKernelSet makeKernelSet(const char* name) {
    NonbondedKernelSet s;
    s.name = name;
    s.width = COP_SIMD_WIDTH;
    s.lj[0] = &pairKernel<Family::Lj, false>;
    s.lj[1] = &pairKernel<Family::Lj, true>;
    s.ljCoul[0] = &pairKernel<Family::LjCoul, false>;
    s.ljCoul[1] = &pairKernel<Family::LjCoul, true>;
    s.go[0] = &pairKernel<Family::Go, false>;
    s.go[1] = &pairKernel<Family::Go, true>;
    return s;
}

} // namespace COP_SIMD_ARCH_NS
} // namespace cop::md::simd
