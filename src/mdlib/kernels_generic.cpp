/// Portable kernel TU: the width-templated kernels at width 1, compiled
/// with the project's baseline flags only. Every host can run it: the
/// Soa flavor installs it, and it is the COPERNICUS_SIMD="scalar" target.

#define COP_SIMD_ARCH_NS arch_generic
#define COP_SIMD_WIDTH 1

#include "mdlib/simd_kernels_impl.hpp"

#include "mdlib/simd_kernel_sets.hpp"

namespace cop::md::simd {

NonbondedKernelSet genericKernels() {
    return arch_generic::makeKernelSet("scalar");
}

} // namespace cop::md::simd
