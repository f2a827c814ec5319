#pragma once

/// \file simd_kernel_sets.hpp
/// Declarations of the per-ISA kernel-set factories. Each is defined in
/// exactly one kernels_<isa>.cpp translation unit, compiled with that
/// ISA's -m flags, and present only when CMake found the flags workable
/// (COPERNICUS_SIMD_HAVE_<ISA>). Declarations only — this header is safe
/// to include from TUs compiled with any flags.

#include "mdlib/kernel_params.hpp"

namespace cop::md::simd {

/// Portable width-1 set (the Soa flavor's and COPERNICUS_SIMD=scalar's);
/// compiles everywhere, no -m flags.
NonbondedKernelSet genericKernels();
#ifdef COPERNICUS_SIMD_HAVE_SSE2
NonbondedKernelSet sse2Kernels();
#endif
#ifdef COPERNICUS_SIMD_HAVE_AVX2
NonbondedKernelSet avx2Kernels();
#endif
#ifdef COPERNICUS_SIMD_HAVE_AVX512
NonbondedKernelSet avx512Kernels();
#endif
#ifdef COPERNICUS_SIMD_HAVE_NEON
NonbondedKernelSet neonKernels();
#endif

} // namespace cop::md::simd
