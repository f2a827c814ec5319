#pragma once

/// \file simd_dispatch.hpp
/// Startup ISA selection for the SIMD nonbonded kernels. Three layers of
/// choice, strongest first:
///   1. An explicit `ForceFieldParams::simdIsa` other than Auto — the
///      programmatic override; wins over everything (so tests can pin an
///      ISA regardless of the environment).
///   2. The COPERNICUS_SIMD environment variable (scalar|sse2|avx2|
///      avx512|neon|auto) — consulted only while resolving Auto; this is
///      how CI pins a deterministic kernel without touching code.
///   3. CPU detection: the widest kernel set that is both compiled in
///      (CMake found the -m flags) and runnable on this host
///      (__builtin_cpu_supports on x86-64; NEON is baseline on AArch64).
/// Requesting an ISA that is not compiled in or not runnable throws
/// InvalidArgument — a silent downgrade would invalidate any benchmark
/// claiming that ISA. "scalar" (the portable width-1 set the Soa flavor
/// also runs) is always compiled and always runnable, so resolution
/// cannot fail.

#include <string>
#include <vector>

#include "mdlib/kernel_params.hpp"

namespace cop::md {

enum class SimdIsa {
    Auto,   ///< resolve via COPERNICUS_SIMD, then CPU detection
    Scalar, ///< portable width-1 set, the Soa flavor's (always available)
    Sse2,
    Avx2,
    Avx512,
    Neon,
};

/// Canonical lower-case name ("auto", "scalar", "sse2", ...).
const char* simdIsaName(SimdIsa isa);

/// Inverse of simdIsaName; also accepts "generic" as an alias for
/// "scalar". Throws InvalidArgument on anything else.
SimdIsa parseSimdIsaName(const std::string& name);

/// The kernel sets this binary was built with, widest last. Always
/// contains Scalar.
const std::vector<SimdIsa>& compiledSimdIsas();

/// True when `isa` is compiled in AND this host can execute it.
bool simdIsaRunnable(SimdIsa isa);

/// Widest compiled-in ISA the host supports (never Auto; at worst
/// Scalar). Pure CPU detection — ignores the environment.
SimdIsa detectSimdIsa();

/// Applies the three-layer policy above. `requested` != Auto is
/// validated and returned; Auto consults COPERNICUS_SIMD and falls back
/// to detectSimdIsa(). Never returns Auto.
SimdIsa resolveSimdIsa(SimdIsa requested);

/// Kernel table for a resolved ISA (isa != Auto, must be runnable).
const NonbondedKernelSet& kernelSetFor(SimdIsa isa);

} // namespace cop::md
