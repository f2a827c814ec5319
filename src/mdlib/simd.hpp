#pragma once

/// \file simd.hpp
/// Width-generic SIMD pack abstraction for the nonbonded inner loops: a
/// `SimdPack<W>` of W doubles with loads/stores, arithmetic, a masked
/// select (the branch-free cutoff test), round-to-nearest (the minimum
/// image), sqrt, and a horizontal reduce. The primary template is a
/// portable lane-loop fallback that compiles on any target; explicit
/// specializations map the same API onto SSE2, AVX2, AVX-512F and NEON
/// intrinsics.
///
/// ODR discipline: this header is included by translation units compiled
/// with *different* -m flags (kernels_sse2.cpp, kernels_avx2.cpp, ...).
/// An inline function shared across such TUs is an ODR trap — the linker
/// keeps one copy, possibly the one compiled with the widest ISA, which
/// then faults on hosts the dispatcher routed away from. Every including
/// TU therefore wraps this header in its own namespace by defining
/// COP_SIMD_ARCH_NS before inclusion (default: `portable`), so all pack
/// code is arch-distinct at the symbol level and nothing leaks across
/// flag boundaries. The intrinsic specializations are double-gated on
/// COP_SIMD_TARGET_<ISA> (the TU asked for them) and the compiler's own
/// feature macro (the TU's flags deliver them): kernels_avx512.cpp also
/// defines __AVX2__, but must not instantiate the AVX2 pack with EVEX
/// codegen under the AVX2 dispatch entry.
///
/// Tolerance note: the primary template at W = 1 (the portable "scalar"
/// set, which the Soa flavor runs) is a plain scalar loop, operation for
/// operation. Wider packs compute the same IEEE double operations, so
/// their results differ from it only through summation order (lane
/// accumulators reduced once at the end), the recip/rsqrt refinement and
/// possible FMA contraction, all bounded by the documented 1e-9 parity
/// tolerance (DESIGN.md "SIMD dispatch & evaluator layer").

#include <cmath>
#include <cstddef>

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#endif

#ifndef COP_SIMD_ARCH_NS
#define COP_SIMD_ARCH_NS portable
#endif

namespace cop::md::simd {
namespace COP_SIMD_ARCH_NS {

/// Portable width-W pack: plain lane loops the auto-vectorizer can fold,
/// and the reference semantics every specialization must match.
template <int W>
struct SimdPack {
    static_assert(W > 0, "pack width must be positive");
    static constexpr int width = W;
    double v[W];

    struct Mask {
        bool m[W];
    };

    static SimdPack zero() {
        SimdPack r;
        for (int l = 0; l < W; ++l) r.v[l] = 0.0;
        return r;
    }
    static SimdPack broadcast(double x) {
        SimdPack r;
        for (int l = 0; l < W; ++l) r.v[l] = x;
        return r;
    }
    /// Unaligned contiguous load (the qq charge-product channel).
    static SimdPack load(const double* p) {
        SimdPack r;
        for (int l = 0; l < W; ++l) r.v[l] = p[l];
        return r;
    }
    void store(double* p) const {
        for (int l = 0; l < W; ++l) p[l] = v[l];
    }
    /// Lane-wise load of W xyz-interleaved triplets: x[l] = xyz[3*idx[l]]
    /// and so on. This is the only indexed access the kernels perform; the
    /// arithmetic itself is gather-free.
    static void gather3(const double* xyz, const int* idx, SimdPack& x,
                        SimdPack& y, SimdPack& z) {
        for (int l = 0; l < W; ++l) {
            const std::size_t j3 = 3 * std::size_t(idx[l]);
            x.v[l] = xyz[j3];
            y.v[l] = xyz[j3 + 1];
            z.v[l] = xyz[j3 + 2];
        }
    }
    /// Lane-wise read-modify-write of W triplets: f[3*idx[l]] -= x[l] and
    /// so on. The callers' j indices are distinct within a run, so the
    /// lanes of one call never alias. The pair kernels' only scattered
    /// store.
    static void scatterSub3(double* f, const int* idx, const SimdPack& x,
                            const SimdPack& y, const SimdPack& z) {
        for (int l = 0; l < W; ++l) {
            const std::size_t j3 = 3 * std::size_t(idx[l]);
            f[j3] -= x.v[l];
            f[j3 + 1] -= y.v[l];
            f[j3 + 2] -= z.v[l];
        }
    }

    friend SimdPack operator+(SimdPack a, SimdPack b) {
        for (int l = 0; l < W; ++l) a.v[l] += b.v[l];
        return a;
    }
    friend SimdPack operator-(SimdPack a, SimdPack b) {
        for (int l = 0; l < W; ++l) a.v[l] -= b.v[l];
        return a;
    }
    friend SimdPack operator*(SimdPack a, SimdPack b) {
        for (int l = 0; l < W; ++l) a.v[l] *= b.v[l];
        return a;
    }
    friend SimdPack operator/(SimdPack a, SimdPack b) {
        for (int l = 0; l < W; ++l) a.v[l] /= b.v[l];
        return a;
    }
    SimdPack& operator+=(SimdPack b) { return *this = *this + b; }

    static SimdPack sqrt(SimdPack a) {
        for (int l = 0; l < W; ++l) a.v[l] = std::sqrt(a.v[l]);
        return a;
    }
    /// 1/a. Exact (IEEE divide) by default; packs whose ISA has a fast
    /// reciprocal estimate override this with estimate + Newton steps
    /// refined to well below the documented 1e-9 SIMD parity tolerance.
    static SimdPack recip(SimdPack a) {
        for (int l = 0; l < W; ++l) a.v[l] = 1.0 / a.v[l];
        return a;
    }
    /// 1/sqrt(a), same contract as recip.
    static SimdPack rsqrt(SimdPack a) {
        for (int l = 0; l < W; ++l) a.v[l] = 1.0 / std::sqrt(a.v[l]);
        return a;
    }
    /// Round to nearest, ties to even — identical to std::rint under the
    /// default rounding mode.
    static SimdPack rint(SimdPack a) {
        for (int l = 0; l < W; ++l) a.v[l] = std::rint(a.v[l]);
        return a;
    }

    static Mask cmpLe(SimdPack a, SimdPack b) {
        Mask r;
        for (int l = 0; l < W; ++l) r.m[l] = a.v[l] <= b.v[l];
        return r;
    }
    static Mask cmpGe(SimdPack a, SimdPack b) {
        Mask r;
        for (int l = 0; l < W; ++l) r.m[l] = a.v[l] >= b.v[l];
        return r;
    }
    static Mask maskAnd(Mask a, Mask b) {
        Mask r;
        for (int l = 0; l < W; ++l) r.m[l] = a.m[l] && b.m[l];
        return r;
    }
    /// Mask with the first `count` lanes active — the kernels' sub-width
    /// run tails are computed as one masked block instead of a scalar
    /// remainder loop.
    static Mask tailMask(int count) {
        Mask r;
        for (int l = 0; l < W; ++l) r.m[l] = l < count;
        return r;
    }
    static SimdPack select(Mask c, SimdPack t, SimdPack f) {
        SimdPack r;
        for (int l = 0; l < W; ++l) r.v[l] = c.m[l] ? t.v[l] : f.v[l];
        return r;
    }

    double hsum() const {
        if constexpr (W == 1) return v[0];
        double s = 0.0;
        for (int l = 0; l < W; ++l) s += v[l];
        return s;
    }
};

#if defined(COP_SIMD_TARGET_SSE2) && defined(__SSE2__)

/// SSE2: two doubles in an XMM register. SSE2 predates roundpd, so rint
/// uses the classic add-2^52 trick (exact round-to-nearest-even for
/// |x| < 2^51 — far beyond the handful of box images the minimum-image
/// fixup ever sees).
template <>
struct SimdPack<2> {
    static constexpr int width = 2;
    __m128d v;

    using Mask = __m128d; ///< all-ones / all-zeros lanes

    static SimdPack wrap(__m128d x) { return SimdPack{x}; }
    static SimdPack zero() { return wrap(_mm_setzero_pd()); }
    static SimdPack broadcast(double x) { return wrap(_mm_set1_pd(x)); }
    static SimdPack load(const double* p) { return wrap(_mm_loadu_pd(p)); }
    void store(double* p) const { _mm_storeu_pd(p, v); }
    static void gather3(const double* xyz, const int* idx, SimdPack& x,
                        SimdPack& y, SimdPack& z) {
        const std::size_t a3 = 3 * std::size_t(idx[0]);
        const std::size_t b3 = 3 * std::size_t(idx[1]);
        // Two (x, y) pair loads + shuffles beat four scalar inserts.
        const __m128d xyA = _mm_loadu_pd(xyz + a3);
        const __m128d xyB = _mm_loadu_pd(xyz + b3);
        x = wrap(_mm_unpacklo_pd(xyA, xyB));
        y = wrap(_mm_unpackhi_pd(xyA, xyB));
        z = wrap(_mm_set_pd(xyz[b3 + 2], xyz[a3 + 2]));
    }
    static void scatterSub3(double* f, const int* idx, const SimdPack& x,
                            const SimdPack& y, const SimdPack& z) {
        // Inverse of gather3: recombine lanes into per-j (x, y) pairs and
        // read-modify-write them as vectors — no stack round-trip, which
        // would stall on vector-store-to-scalar-load forwarding.
        const __m128d t0 = _mm_unpacklo_pd(x.v, y.v);
        const __m128d t1 = _mm_unpackhi_pd(x.v, y.v);
        double* a = f + 3 * std::size_t(idx[0]);
        _mm_storeu_pd(a, _mm_sub_pd(_mm_loadu_pd(a), t0));
        a[2] -= _mm_cvtsd_f64(z.v);
        double* b = f + 3 * std::size_t(idx[1]);
        _mm_storeu_pd(b, _mm_sub_pd(_mm_loadu_pd(b), t1));
        b[2] -= _mm_cvtsd_f64(_mm_unpackhi_pd(z.v, z.v));
    }

    friend SimdPack operator+(SimdPack a, SimdPack b) {
        return wrap(_mm_add_pd(a.v, b.v));
    }
    friend SimdPack operator-(SimdPack a, SimdPack b) {
        return wrap(_mm_sub_pd(a.v, b.v));
    }
    friend SimdPack operator*(SimdPack a, SimdPack b) {
        return wrap(_mm_mul_pd(a.v, b.v));
    }
    friend SimdPack operator/(SimdPack a, SimdPack b) {
        return wrap(_mm_div_pd(a.v, b.v));
    }
    SimdPack& operator+=(SimdPack b) { return *this = *this + b; }

    static SimdPack sqrt(SimdPack a) { return wrap(_mm_sqrt_pd(a.v)); }
    static SimdPack recip(SimdPack a) {
        return wrap(_mm_div_pd(_mm_set1_pd(1.0), a.v));
    }
    static SimdPack rsqrt(SimdPack a) {
        return wrap(_mm_div_pd(_mm_set1_pd(1.0), _mm_sqrt_pd(a.v)));
    }
    static SimdPack rint(SimdPack a) {
        const __m128d two52 = _mm_set1_pd(4503599627370496.0); // 2^52
        const __m128d signMask = _mm_set1_pd(-0.0);
        const __m128d sign = _mm_and_pd(a.v, signMask);
        // Fold the sign so the magic constant rounds the magnitude, then
        // restore it: rint(-x) == -rint(x) for ties-to-even.
        const __m128d mag = _mm_andnot_pd(signMask, a.v);
        const __m128d rounded =
            _mm_sub_pd(_mm_add_pd(mag, two52), two52);
        return wrap(_mm_or_pd(rounded, sign));
    }

    static Mask cmpLe(SimdPack a, SimdPack b) { return _mm_cmple_pd(a.v, b.v); }
    static Mask cmpGe(SimdPack a, SimdPack b) { return _mm_cmpge_pd(a.v, b.v); }
    static Mask maskAnd(Mask a, Mask b) { return _mm_and_pd(a, b); }
    static Mask tailMask(int count) {
        return _mm_cmplt_pd(_mm_setr_pd(0.0, 1.0), _mm_set1_pd(double(count)));
    }
    static SimdPack select(Mask c, SimdPack t, SimdPack f) {
        return wrap(_mm_or_pd(_mm_and_pd(c, t.v), _mm_andnot_pd(c, f.v)));
    }

    double hsum() const {
        const __m128d hi = _mm_unpackhi_pd(v, v);
        return _mm_cvtsd_f64(_mm_add_sd(v, hi));
    }
};

#endif // SSE2

#if defined(COP_SIMD_TARGET_AVX2) && defined(__AVX2__)

/// AVX2: four doubles in a YMM register. The xyz-interleaved layout makes
/// each j's coordinates contiguous, so j-triplet access is four plain
/// 4-double loads plus an in-register 4x3 transpose — measurably faster
/// than three vgatherdpd. The force scatter runs the transpose in reverse
/// and read-modify-writes whole 4-double slots with the 4th lane's delta
/// zeroed, so the extra double is written back unchanged. Plain (not
/// masked) accesses are deliberate twice over: vmaskmovpd stores never
/// forward to later loads, and neighbouring runs revisit the same j
/// triplets within a few cycles, so masked RMW stalled every block; and
/// the over-reach past the last triplet is in-bounds because the force
/// workspace pads its arrays (see ForceWorkspace::ensure).
template <>
struct SimdPack<4> {
    static constexpr int width = 4;
    __m256d v;

    using Mask = __m256d;

    static SimdPack wrap(__m256d x) { return SimdPack{x}; }
    static SimdPack zero() { return wrap(_mm256_setzero_pd()); }
    static SimdPack broadcast(double x) { return wrap(_mm256_set1_pd(x)); }
    static SimdPack load(const double* p) { return wrap(_mm256_loadu_pd(p)); }
    void store(double* p) const { _mm256_storeu_pd(p, v); }
    static void gather3(const double* xyz, const int* idx, SimdPack& x,
                        SimdPack& y, SimdPack& z) {
        // Full 4-double loads; each a_l's 4th lane lands only in the
        // transpose outputs we never form, so the over-read is discarded.
        const __m256d a0 = _mm256_loadu_pd(xyz + 3 * std::size_t(idx[0]));
        const __m256d a1 = _mm256_loadu_pd(xyz + 3 * std::size_t(idx[1]));
        const __m256d a2 = _mm256_loadu_pd(xyz + 3 * std::size_t(idx[2]));
        const __m256d a3 = _mm256_loadu_pd(xyz + 3 * std::size_t(idx[3]));
        const __m256d t0 = _mm256_unpacklo_pd(a0, a1); // x0 x1 z0 z1
        const __m256d t1 = _mm256_unpackhi_pd(a0, a1); // y0 y1 .  .
        const __m256d t2 = _mm256_unpacklo_pd(a2, a3); // x2 x3 z2 z3
        const __m256d t3 = _mm256_unpackhi_pd(a2, a3); // y2 y3 .  .
        x = wrap(_mm256_permute2f128_pd(t0, t2, 0x20));
        y = wrap(_mm256_permute2f128_pd(t1, t3, 0x20));
        z = wrap(_mm256_permute2f128_pd(t0, t2, 0x31));
    }
    static void scatterSub3(double* f, const int* idx, const SimdPack& x,
                            const SimdPack& y, const SimdPack& z) {
        // Per-lane 16-byte (x, y) + 8-byte z read-modify-writes, never a
        // 32-byte slot. Cell-ordered slots make consecutive lanes' j
        // triplets adjacent, and a 32-byte store at 3j partially overlaps
        // the next lane's 32-byte load at 3(j+1) = 3j + 3 — partial
        // overlap defeats store-to-load forwarding and stalled every
        // block. Exact-width accesses to distinct j either don't overlap
        // at all (adjacent j) or overlap exactly across runs revisiting
        // the same j, both of which forward.
        const __m256d t0 = _mm256_unpacklo_pd(x.v, y.v); // fx0 fy0 fx2 fy2
        const __m256d t1 = _mm256_unpackhi_pd(x.v, y.v); // fx1 fy1 fx3 fy3
        const __m128d zlo = _mm256_castpd256_pd128(z.v); // fz0 fz1
        const __m128d zhi = _mm256_extractf128_pd(z.v, 1); // fz2 fz3
        double* p0 = f + 3 * std::size_t(idx[0]);
        _mm_storeu_pd(p0, _mm_sub_pd(_mm_loadu_pd(p0),
                                     _mm256_castpd256_pd128(t0)));
        p0[2] -= _mm_cvtsd_f64(zlo);
        double* p1 = f + 3 * std::size_t(idx[1]);
        _mm_storeu_pd(p1, _mm_sub_pd(_mm_loadu_pd(p1),
                                     _mm256_castpd256_pd128(t1)));
        p1[2] -= _mm_cvtsd_f64(_mm_unpackhi_pd(zlo, zlo));
        double* p2 = f + 3 * std::size_t(idx[2]);
        _mm_storeu_pd(p2, _mm_sub_pd(_mm_loadu_pd(p2),
                                     _mm256_extractf128_pd(t0, 1)));
        p2[2] -= _mm_cvtsd_f64(zhi);
        double* p3 = f + 3 * std::size_t(idx[3]);
        _mm_storeu_pd(p3, _mm_sub_pd(_mm_loadu_pd(p3),
                                     _mm256_extractf128_pd(t1, 1)));
        p3[2] -= _mm_cvtsd_f64(_mm_unpackhi_pd(zhi, zhi));
    }

    friend SimdPack operator+(SimdPack a, SimdPack b) {
        return wrap(_mm256_add_pd(a.v, b.v));
    }
    friend SimdPack operator-(SimdPack a, SimdPack b) {
        return wrap(_mm256_sub_pd(a.v, b.v));
    }
    friend SimdPack operator*(SimdPack a, SimdPack b) {
        return wrap(_mm256_mul_pd(a.v, b.v));
    }
    friend SimdPack operator/(SimdPack a, SimdPack b) {
        return wrap(_mm256_div_pd(a.v, b.v));
    }
    SimdPack& operator+=(SimdPack b) { return *this = *this + b; }

    static SimdPack sqrt(SimdPack a) { return wrap(_mm256_sqrt_pd(a.v)); }
    static SimdPack recip(SimdPack a) {
        return wrap(_mm256_div_pd(_mm256_set1_pd(1.0), a.v));
    }
    static SimdPack rsqrt(SimdPack a) {
        return wrap(_mm256_div_pd(_mm256_set1_pd(1.0), _mm256_sqrt_pd(a.v)));
    }
    static SimdPack rint(SimdPack a) {
        return wrap(_mm256_round_pd(
            a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
    }

    static Mask cmpLe(SimdPack a, SimdPack b) {
        return _mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ);
    }
    static Mask cmpGe(SimdPack a, SimdPack b) {
        return _mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ);
    }
    static Mask maskAnd(Mask a, Mask b) { return _mm256_and_pd(a, b); }
    static Mask tailMask(int count) {
        return _mm256_cmp_pd(_mm256_setr_pd(0.0, 1.0, 2.0, 3.0),
                             _mm256_set1_pd(double(count)), _CMP_LT_OQ);
    }
    static SimdPack select(Mask c, SimdPack t, SimdPack f) {
        return wrap(_mm256_blendv_pd(f.v, t.v, c));
    }

    double hsum() const {
        const __m128d lo = _mm256_castpd256_pd128(v);
        const __m128d hi = _mm256_extractf128_pd(v, 1);
        const __m128d s = _mm_add_pd(lo, hi);
        return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
    }
};

#endif // AVX2

#if defined(COP_SIMD_TARGET_AVX512) && defined(__AVX512F__)

/// AVX-512F: eight doubles in a ZMM register with native predication —
/// the cutoff mask lives in a k-register instead of a blend vector.
/// Triplet access works on 256-bit halves (full 4-double loads plus a
/// 4x3 transpose per half, see the AVX2 pack) rather than vgatherdpd:
/// three zmm gathers cost ~40 cycles per block on Skylake-X/Ice Lake
/// derivatives, more than the entire pair arithmetic. -mavx512f implies
/// AVX2 codegen, so the ymm intrinsics are available here.
template <>
struct SimdPack<8> {
    static constexpr int width = 8;
    __m512d v;

    using Mask = __mmask8;

    static SimdPack wrap(__m512d x) { return SimdPack{x}; }
    static SimdPack zero() { return wrap(_mm512_setzero_pd()); }
    static SimdPack broadcast(double x) { return wrap(_mm512_set1_pd(x)); }
    static SimdPack load(const double* p) { return wrap(_mm512_loadu_pd(p)); }
    void store(double* p) const { _mm512_storeu_pd(p, v); }
    static void gatherHalf3(const double* xyz, const int* idx, __m256d& x,
                            __m256d& y, __m256d& z) {
        const __m256d a0 = _mm256_loadu_pd(xyz + 3 * std::size_t(idx[0]));
        const __m256d a1 = _mm256_loadu_pd(xyz + 3 * std::size_t(idx[1]));
        const __m256d a2 = _mm256_loadu_pd(xyz + 3 * std::size_t(idx[2]));
        const __m256d a3 = _mm256_loadu_pd(xyz + 3 * std::size_t(idx[3]));
        const __m256d t0 = _mm256_unpacklo_pd(a0, a1);
        const __m256d t1 = _mm256_unpackhi_pd(a0, a1);
        const __m256d t2 = _mm256_unpacklo_pd(a2, a3);
        const __m256d t3 = _mm256_unpackhi_pd(a2, a3);
        x = _mm256_permute2f128_pd(t0, t2, 0x20);
        y = _mm256_permute2f128_pd(t1, t3, 0x20);
        z = _mm256_permute2f128_pd(t0, t2, 0x31);
    }
    static void gather3(const double* xyz, const int* idx, SimdPack& x,
                        SimdPack& y, SimdPack& z) {
        __m256d xl, yl, zl, xh, yh, zh;
        gatherHalf3(xyz, idx, xl, yl, zl);
        gatherHalf3(xyz, idx + 4, xh, yh, zh);
        x = wrap(_mm512_insertf64x4(_mm512_castpd256_pd512(xl), xh, 1));
        y = wrap(_mm512_insertf64x4(_mm512_castpd256_pd512(yl), yh, 1));
        z = wrap(_mm512_insertf64x4(_mm512_castpd256_pd512(zl), zh, 1));
    }
    static void scatterHalf3(double* f, const int* idx, __m256d x,
                             __m256d y, __m256d z) {
        // Same exact-width (16-byte xy + 8-byte z) RMW shape as the AVX2
        // pack's scatterSub3: a 32-byte slot store would partially
        // overlap the next lane's load when j triplets are adjacent
        // (the common case in cell order), defeating store forwarding.
        const __m256d t0 = _mm256_unpacklo_pd(x, y);
        const __m256d t1 = _mm256_unpackhi_pd(x, y);
        const __m128d zlo = _mm256_castpd256_pd128(z);
        const __m128d zhi = _mm256_extractf128_pd(z, 1);
        double* p0 = f + 3 * std::size_t(idx[0]);
        _mm_storeu_pd(p0, _mm_sub_pd(_mm_loadu_pd(p0),
                                     _mm256_castpd256_pd128(t0)));
        p0[2] -= _mm_cvtsd_f64(zlo);
        double* p1 = f + 3 * std::size_t(idx[1]);
        _mm_storeu_pd(p1, _mm_sub_pd(_mm_loadu_pd(p1),
                                     _mm256_castpd256_pd128(t1)));
        p1[2] -= _mm_cvtsd_f64(_mm_unpackhi_pd(zlo, zlo));
        double* p2 = f + 3 * std::size_t(idx[2]);
        _mm_storeu_pd(p2, _mm_sub_pd(_mm_loadu_pd(p2),
                                     _mm256_extractf128_pd(t0, 1)));
        p2[2] -= _mm_cvtsd_f64(zhi);
        double* p3 = f + 3 * std::size_t(idx[3]);
        _mm_storeu_pd(p3, _mm_sub_pd(_mm_loadu_pd(p3),
                                     _mm256_extractf128_pd(t1, 1)));
        p3[2] -= _mm_cvtsd_f64(_mm_unpackhi_pd(zhi, zhi));
    }
    static void scatterSub3(double* f, const int* idx, const SimdPack& x,
                            const SimdPack& y, const SimdPack& z) {
        scatterHalf3(f, idx, _mm512_castpd512_pd256(x.v),
                     _mm512_castpd512_pd256(y.v),
                     _mm512_castpd512_pd256(z.v));
        scatterHalf3(f, idx + 4, _mm512_extractf64x4_pd(x.v, 1),
                     _mm512_extractf64x4_pd(y.v, 1),
                     _mm512_extractf64x4_pd(z.v, 1));
    }

    friend SimdPack operator+(SimdPack a, SimdPack b) {
        return wrap(_mm512_add_pd(a.v, b.v));
    }
    friend SimdPack operator-(SimdPack a, SimdPack b) {
        return wrap(_mm512_sub_pd(a.v, b.v));
    }
    friend SimdPack operator*(SimdPack a, SimdPack b) {
        return wrap(_mm512_mul_pd(a.v, b.v));
    }
    friend SimdPack operator/(SimdPack a, SimdPack b) {
        return wrap(_mm512_div_pd(a.v, b.v));
    }
    SimdPack& operator+=(SimdPack b) { return *this = *this + b; }

    static SimdPack sqrt(SimdPack a) { return wrap(_mm512_sqrt_pd(a.v)); }
    /// vdivpd/vsqrtpd on a full ZMM cost ~16/~31 cycles of throughput on
    /// Skylake-X derivatives — longer than the rest of the pair math — so
    /// the divides use vrcp14pd/vrsqrt14pd (2^-14 relative error) refined
    /// by two Newton steps to ~1 ulp, far inside the 1e-9 parity
    /// tolerance. Inputs are clamped to [minR2, cut2] by the kernels'
    /// cutoff select, so the estimates never see 0 or infinity.
    static SimdPack recip(SimdPack a) {
        const __m512d two = _mm512_set1_pd(2.0);
        __m512d x = _mm512_rcp14_pd(a.v);
        x = _mm512_mul_pd(x, _mm512_fnmadd_pd(a.v, x, two));
        x = _mm512_mul_pd(x, _mm512_fnmadd_pd(a.v, x, two));
        return wrap(x);
    }
    static SimdPack rsqrt(SimdPack a) {
        // x' = 0.5 * x * (3 - a * x^2), twice.
        const __m512d half = _mm512_set1_pd(0.5);
        const __m512d three = _mm512_set1_pd(3.0);
        __m512d x = _mm512_rsqrt14_pd(a.v);
        x = _mm512_mul_pd(
            _mm512_mul_pd(x, half),
            _mm512_fnmadd_pd(a.v, _mm512_mul_pd(x, x), three));
        x = _mm512_mul_pd(
            _mm512_mul_pd(x, half),
            _mm512_fnmadd_pd(a.v, _mm512_mul_pd(x, x), three));
        return wrap(x);
    }
    static SimdPack rint(SimdPack a) {
        return wrap(_mm512_roundscale_pd(
            a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
    }

    static Mask cmpLe(SimdPack a, SimdPack b) {
        return _mm512_cmp_pd_mask(a.v, b.v, _CMP_LE_OQ);
    }
    static Mask cmpGe(SimdPack a, SimdPack b) {
        return _mm512_cmp_pd_mask(a.v, b.v, _CMP_GE_OQ);
    }
    static Mask maskAnd(Mask a, Mask b) {
        return static_cast<Mask>(a & b);
    }
    static Mask tailMask(int count) {
        return static_cast<Mask>((1u << count) - 1u);
    }
    static SimdPack select(Mask c, SimdPack t, SimdPack f) {
        return wrap(_mm512_mask_blend_pd(c, f.v, t.v));
    }

    double hsum() const { return _mm512_reduce_add_pd(v); }
};

#endif // AVX512F

#if defined(COP_SIMD_TARGET_NEON) && defined(__ARM_NEON) && \
    defined(__aarch64__)

/// NEON (AArch64): two doubles per vector; double-precision divide,
/// sqrt and round-to-nearest-even are all native A64 instructions.
template <>
struct SimdPack<2> {
    static constexpr int width = 2;
    float64x2_t v;

    using Mask = uint64x2_t;

    static SimdPack wrap(float64x2_t x) { return SimdPack{x}; }
    static SimdPack zero() { return wrap(vdupq_n_f64(0.0)); }
    static SimdPack broadcast(double x) { return wrap(vdupq_n_f64(x)); }
    static SimdPack load(const double* p) { return wrap(vld1q_f64(p)); }
    void store(double* p) const { vst1q_f64(p, v); }
    static void gather3(const double* xyz, const int* idx, SimdPack& x,
                        SimdPack& y, SimdPack& z) {
        const std::size_t a3 = 3 * std::size_t(idx[0]);
        const std::size_t b3 = 3 * std::size_t(idx[1]);
        const float64x2_t xyA = vld1q_f64(xyz + a3);
        const float64x2_t xyB = vld1q_f64(xyz + b3);
        x = wrap(vzip1q_f64(xyA, xyB));
        y = wrap(vzip2q_f64(xyA, xyB));
        float64x2_t zz = vdupq_n_f64(xyz[a3 + 2]);
        zz = vsetq_lane_f64(xyz[b3 + 2], zz, 1);
        z = wrap(zz);
    }
    static void scatterSub3(double* f, const int* idx, const SimdPack& x,
                            const SimdPack& y, const SimdPack& z) {
        const float64x2_t t0 = vzip1q_f64(x.v, y.v);
        const float64x2_t t1 = vzip2q_f64(x.v, y.v);
        double* a = f + 3 * std::size_t(idx[0]);
        vst1q_f64(a, vsubq_f64(vld1q_f64(a), t0));
        a[2] -= vgetq_lane_f64(z.v, 0);
        double* b = f + 3 * std::size_t(idx[1]);
        vst1q_f64(b, vsubq_f64(vld1q_f64(b), t1));
        b[2] -= vgetq_lane_f64(z.v, 1);
    }

    friend SimdPack operator+(SimdPack a, SimdPack b) {
        return wrap(vaddq_f64(a.v, b.v));
    }
    friend SimdPack operator-(SimdPack a, SimdPack b) {
        return wrap(vsubq_f64(a.v, b.v));
    }
    friend SimdPack operator*(SimdPack a, SimdPack b) {
        return wrap(vmulq_f64(a.v, b.v));
    }
    friend SimdPack operator/(SimdPack a, SimdPack b) {
        return wrap(vdivq_f64(a.v, b.v));
    }
    SimdPack& operator+=(SimdPack b) { return *this = *this + b; }

    static SimdPack sqrt(SimdPack a) { return wrap(vsqrtq_f64(a.v)); }
    static SimdPack recip(SimdPack a) {
        return wrap(vdivq_f64(vdupq_n_f64(1.0), a.v));
    }
    static SimdPack rsqrt(SimdPack a) {
        return wrap(vdivq_f64(vdupq_n_f64(1.0), vsqrtq_f64(a.v)));
    }
    static SimdPack rint(SimdPack a) { return wrap(vrndnq_f64(a.v)); }

    static Mask cmpLe(SimdPack a, SimdPack b) { return vcleq_f64(a.v, b.v); }
    static Mask cmpGe(SimdPack a, SimdPack b) { return vcgeq_f64(a.v, b.v); }
    static Mask maskAnd(Mask a, Mask b) { return vandq_u64(a, b); }
    static Mask tailMask(int count) {
        const float64x2_t lanes = vsetq_lane_f64(1.0, vdupq_n_f64(0.0), 1);
        return vcltq_f64(lanes, vdupq_n_f64(double(count)));
    }
    static SimdPack select(Mask c, SimdPack t, SimdPack f) {
        return wrap(vbslq_f64(c, t.v, f.v));
    }

    double hsum() const { return vaddvq_f64(v); }
};

#endif // NEON

} // namespace COP_SIMD_ARCH_NS
} // namespace cop::md::simd
