#include "mdlib/forcefield.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "mdlib/evaluators/angle.hpp"
#include "mdlib/evaluators/bond.hpp"
#include "mdlib/evaluators/contact.hpp"
#include "mdlib/evaluators/dihedral.hpp"
#include "mdlib/evaluators/evaluate.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace cop::md {

ForceField::ForceField(const Topology& top, const Box& box,
                       ForceFieldParams params, ThreadPool* pool)
    : top_(top), box_(box), params_(params), pool_(pool),
      neighborList_(params.cutoff, params.neighborSkin) {
    COP_REQUIRE(top.finalized(), "topology must be finalized");
    COP_REQUIRE(params.cutoff > 0.0, "cutoff must be positive");
    if (params_.flavor == KernelFlavor::SimdAuto)
        activeIsa_ = resolveSimdIsa(params_.simdIsa);
    kernels_ = kernelSetFor(activeIsa_);
}

Energies ForceField::compute(const std::vector<Vec3>& positions,
                             std::vector<Vec3>& forces) {
    COP_REQUIRE(positions.size() == top_.numParticles(),
                "positions size mismatch");
    // assign() reuses the caller's capacity, so the steady state (same
    // vector passed every step) performs no allocation here.
    forces.assign(positions.size(), Vec3{});
    neighborList_.update(top_, box_, positions, pool_);

    Energies e = computeBonded(positions, forces);
    e.contact = computeContacts(positions, forces);
    if (params_.flavor == KernelFlavor::Soa ||
        params_.flavor == KernelFlavor::SimdAuto)
        computeNonbondedSoa(positions, forces, e);
    else
        computeNonbonded(positions, forces, e);
    return e;
}

Energies ForceField::computeBonded(const std::vector<Vec3>& positions,
                                   std::vector<Vec3>& forces) const {
    // One header-only evaluator per interaction family (the GPU-backend
    // seam, see evaluators/evaluate.hpp); term order is that of the
    // pre-refactor monolithic loops, and so is the arithmetic of every
    // family but the trig-free dihedral.
    using namespace evaluators;
    Energies e;
    e.bond = evaluateFamily<BondEvaluator>(top_.bonds(), positions, box_,
                                           forces);
    e.angle = evaluateFamily<AngleEvaluator>(top_.angles(), positions, box_,
                                             forces);
    e.dihedral = evaluateFamily<DihedralEvaluator>(top_.dihedrals(),
                                                   positions, box_, forces);
    return e;
}

double ForceField::computeContacts(const std::vector<Vec3>& positions,
                                   std::vector<Vec3>& forces) const {
    return evaluators::evaluateFamily<evaluators::ContactEvaluator>(
        top_.contacts(), positions, box_, forces);
}

void ForceField::computeNonbonded(const std::vector<Vec3>& positions,
                                  std::vector<Vec3>& forces,
                                  Energies& e) {
    const auto& pairs = neighborList_.pairs();
    const double cut2 = params_.cutoff * params_.cutoff;

    // Reaction-field constants (Tironi et al.): with epsilon_RF -> eps_rf,
    // E = q_i q_j * pref * (1/r + k_rf r^2 - c_rf), k_rf and c_rf chosen so
    // the force is continuous at the cutoff.
    const double rc = params_.cutoff;
    const double epsRF = params_.rfDielectric;
    const double kRF = (epsRF - 1.0) / ((2.0 * epsRF + 1.0) * rc * rc * rc);
    const double cRF = 1.0 / rc + kRF * rc * rc;

    // LJ shift so that E(cutoff) == 0 when requested.
    double ljShift = 0.0;
    if (params_.kind == NonbondedKind::LennardJonesRF && params_.shiftLJ) {
        const double s2 = params_.ljSigma * params_.ljSigma / cut2;
        const double s6 = s2 * s2 * s2;
        ljShift = 4.0 * params_.ljEpsilon * (s6 * s6 - s6);
    }

    auto pairTerm = [&](int i, int j, double& enb, double& ecoul) {
        const Vec3 d = box_.minimumImage(positions[std::size_t(i)],
                                         positions[std::size_t(j)]);
        const double r2 = norm2(d);
        if (r2 > cut2 || r2 < 1e-12) return Vec3{};
        double fOverR = 0.0;
        if (params_.kind == NonbondedKind::GoRepulsive) {
            const double s2 = params_.repSigma * params_.repSigma / r2;
            const double s6 = s2 * s2 * s2;
            const double s12 = s6 * s6;
            enb += params_.repEpsilon * s12;
            fOverR += 12.0 * params_.repEpsilon * s12 / r2;
        } else {
            const double s2 = params_.ljSigma * params_.ljSigma / r2;
            const double s6 = s2 * s2 * s2;
            const double s12 = s6 * s6;
            enb += 4.0 * params_.ljEpsilon * (s12 - s6) - ljShift;
            fOverR += 24.0 * params_.ljEpsilon * (2.0 * s12 - s6) / r2;
            if (params_.useCoulombRF) {
                const double qq = params_.coulombPrefactor *
                                  top_.charge(std::size_t(i)) *
                                  top_.charge(std::size_t(j));
                if (qq != 0.0) {
                    const double r = std::sqrt(r2);
                    ecoul += qq * (1.0 / r + kRF * r2 - cRF);
                    fOverR += qq * (1.0 / (r2 * r) - 2.0 * kRF);
                }
            }
        }
        return d * fOverR;
    };

    // The Blocked4 flavor processes the pair list in blocks of 4,
    // accumulating into small fixed arrays the compiler can keep in vector
    // registers; the Scalar flavor is the obvious loop. Results agree
    // exactly. Both are serial: the thread tier runs on the SoA engine.
    const std::size_t nPairs = pairs.size();
    std::size_t p = 0;
    if (params_.flavor == KernelFlavor::Blocked4) {
        for (; p + 4 <= nPairs; p += 4) {
            Vec3 fs[4];
            for (int u = 0; u < 4; ++u)
                fs[u] = pairTerm(pairs[p + std::size_t(u)].i,
                                 pairs[p + std::size_t(u)].j, e.nonbonded,
                                 e.coulomb);
            for (int u = 0; u < 4; ++u) {
                forces[std::size_t(pairs[p + std::size_t(u)].i)] += fs[u];
                forces[std::size_t(pairs[p + std::size_t(u)].j)] -= fs[u];
            }
        }
    }
    for (; p < nPairs; ++p) {
        const Vec3 f =
            pairTerm(pairs[p].i, pairs[p].j, e.nonbonded, e.coulomb);
        forces[std::size_t(pairs[p].i)] += f;
        forces[std::size_t(pairs[p].j)] -= f;
    }
}

void ForceField::splitPairBuckets(const std::vector<Vec3>& positions) {
    auto& bk = ws_.buckets;
    if (bk.sourceBuild == neighborList_.numBuilds()) return;
    bk.clear();

    // Renumber atoms into the cell order the list was built with (identity
    // when the brute-force path ran): the buckets then index SoA slots
    // where a cell's particles are contiguous, so the kernels' j-accesses
    // touch a few cache lines per neighbour cell instead of one per pair.
    const std::size_t n = top_.numParticles();
    const auto& ord = neighborList_.cellOrder();
    auto& rank = ws_.rank;
    rank.resize(n);
    const bool reordered = ord.size() == n;
    if (reordered) {
        for (std::size_t r = 0; r < n; ++r)
            rank[std::size_t(ord[r])] = int(r);
    } else {
        for (std::size_t i = 0; i < n; ++i) rank[i] = int(i);
    }

    // Cell-built lists (always periodic, box >= 3 list cutoffs per
    // dimension) work on wrapped coordinates: freeze each atom's wrap
    // offset now so the wrapped positions stay continuous between
    // rebuilds. Width-1 kernel sets additionally get precomputed
    // per-pair shift codes — record which of the 27 shift vectors makes
    // the wrapped displacement the minimum image; until the next rebuild
    // no atom moves more than skin/2, so the recorded shift stays the
    // right image for every pair that can still be inside the cutoff.
    // Wide kernel sets skip the codes and image per block with a vector
    // rint instead: a scalar kernel pays the rounding chain per pair, a
    // wide one amortizes it over W lanes — and runs no longer split at
    // code changes, so each atom contributes ONE run (measured 14541 ->
    // 9999 runs at N=10000, ~30% off the width-8 kernel time; fewer
    // per-run reductions and far fewer sub-width tails).
    // An open box has nothing to image, so it runs the shifted kernels
    // with every run on code 13, the zero shift: the unshifted kernels'
    // per-pair L * rint(d / L) with L = 0 is three roundings, multiplies
    // and subtracts per pair that change no bit of the result.
    bk.wrapped = reordered && box_.periodic;
    bk.shifted = !box_.periodic || (bk.wrapped && kernels_.width == 1);
    if (bk.wrapped) {
        const Vec3 L = box_.lengths;
        for (std::size_t r = 0; r < n; ++r) {
            const Vec3& p = positions[std::size_t(ord[r])];
            ws_.o3[3 * r] = -L.x * std::floor(p.x / L.x);
            ws_.o3[3 * r + 1] = -L.y * std::floor(p.y / L.y);
            ws_.o3[3 * r + 2] = -L.z * std::floor(p.z / L.z);
            // ws_.pos3 doubles as scratch for the wrapped coordinates the
            // shift codes are derived from; compute() re-scatters them
            // (same values) before the kernels run.
            ws_.pos3[3 * r] = p.x + ws_.o3[3 * r];
            ws_.pos3[3 * r + 1] = p.y + ws_.o3[3 * r + 1];
            ws_.pos3[3 * r + 2] = p.z + ws_.o3[3 * r + 2];
        }
    }
    auto shiftCode = [&](int ri, int rj) {
        const std::size_t i3 = 3 * std::size_t(ri), j3 = 3 * std::size_t(rj);
        const int sx = int(std::rint((ws_.pos3[i3] - ws_.pos3[j3]) /
                                     box_.lengths.x));
        const int sy = int(std::rint((ws_.pos3[i3 + 1] - ws_.pos3[j3 + 1]) /
                                     box_.lengths.y));
        const int sz = int(std::rint((ws_.pos3[i3 + 2] - ws_.pos3[j3 + 2]) /
                                     box_.lengths.z));
        return static_cast<unsigned char>((sx + 1) * 9 + (sy + 1) * 3 +
                                          (sz + 1));
    };

    // Opens a new run when the i slot or the shift code changes (the
    // counting sort below makes equal (i, code) pairs contiguous, so a
    // linear pass finds every boundary and emits exactly one run per
    // key). Making the shift a per-run property lets the kernels fold it
    // into the i position once per run instead of per pair. Runs are NOT
    // padded to the kernel width: padding with culled j = i self pairs
    // was tried and lost ~20% at width 8 — every duplicate-index lane
    // extends a serial read-modify-write chain through one force slot,
    // which costs more than letting the kernels' scalar remainder loop
    // finish the sub-width tail.
    auto pushRun = [](AlignedVector<int>& runI, AlignedVector<int>& runStart,
                      AlignedVector<unsigned char>& runS, int ri,
                      unsigned char code, AlignedVector<int>& J) {
        if (runI.empty() || runI.back() != ri || runS.back() != code) {
            runI.push_back(ri);
            runS.push_back(code);
            runStart.push_back(int(J.size()));
        }
    };
    // Code 13 is the zero shift; used as a constant for unshifted and
    // open-box buckets so it never splits a run.
    const bool coded = bk.shifted && box_.periodic;
    auto codeOf = [&](int ri, int rj) {
        return coded ? shiftCode(ri, rj) : static_cast<unsigned char>(13);
    };

    // Order pairs by (i slot, shift code) before bucketing. The list
    // emits pairs cell-pair by cell-pair, which scatters one atom's
    // pairs across many short segments — measured 2.7 pairs per run at
    // N=10000, leaving the wide SIMD kernels stuck in their scalar
    // remainder tails. A stable counting sort on the composite key
    // (O(P + 27 N) per rebuild, deterministic on every host) merges them
    // into one long run per (i, code): ~27 pairs per atom split over at
    // most a handful of codes — or exactly one run per atom when the
    // kernel set is wide (codeOf pins the code, see above).
    // A brute-force list (no cell order) is already in ascending (i, j)
    // order, and without periodic shift codes every key is i * 27 + 13:
    // the sort would be the identity permutation, so it is skipped.
    const auto& pairs = neighborList_.pairs();
    const std::size_t nP = pairs.size();
    constexpr int K = 27;
    const bool presorted = !reordered && !coded;
    auto& key = ws_.pairKey;
    auto& order = ws_.pairOrder;
    key.resize(nP);
    order.resize(nP);
    for (std::size_t p = 0; p < nP; ++p) {
        const int ri = rank[std::size_t(pairs[p].i)];
        const int rj = rank[std::size_t(pairs[p].j)];
        key[p] = ri * K + int(codeOf(ri, rj));
    }
    if (presorted) {
        std::iota(order.begin(), order.end(), 0);
    } else {
        auto& off = ws_.keyOffset;
        off.resize(std::size_t(K) * n + 1);
        std::fill(off.begin(), off.end(), 0);
        for (std::size_t p = 0; p < nP; ++p) ++off[std::size_t(key[p]) + 1];
        for (std::size_t s = 1; s < off.size(); ++s) off[s] += off[s - 1];
        for (std::size_t p = 0; p < nP; ++p)
            order[std::size_t(off[std::size_t(key[p])]++)] = int(p);
    }

    if (params_.kind == NonbondedKind::GoRepulsive) {
        for (std::size_t s = 0; s < nP; ++s) {
            const auto& p = pairs[std::size_t(order[s])];
            const int k = key[std::size_t(order[s])];
            const int ri = k / K;
            const auto code = static_cast<unsigned char>(k % K);
            const int rj = rank[std::size_t(p.j)];
            pushRun(bk.goRunI, bk.goRunStart, bk.goRunS, ri, code, bk.goJ);
            bk.goJ.push_back(rj);
        }
    } else {
        const bool coul = params_.useCoulombRF;
        for (std::size_t s = 0; s < nP; ++s) {
            const auto& p = pairs[std::size_t(order[s])];
            const int k = key[std::size_t(order[s])];
            const int ri = k / K;
            const auto code = static_cast<unsigned char>(k % K);
            const double qq = coul ? params_.coulombPrefactor *
                                         top_.charge(std::size_t(p.i)) *
                                         top_.charge(std::size_t(p.j))
                                   : 0.0;
            const int rj = rank[std::size_t(p.j)];
            if (qq != 0.0) {
                pushRun(bk.qRunI, bk.qRunStart, bk.qRunS, ri, code, bk.qJ);
                bk.qJ.push_back(rj);
                bk.qq.push_back(qq);
            } else {
                pushRun(bk.ljRunI, bk.ljRunStart, bk.ljRunS, ri, code,
                        bk.ljJ);
                bk.ljJ.push_back(rj);
            }
        }
    }
    // Close the run tables with end sentinels.
    bk.ljRunStart.push_back(int(bk.ljJ.size()));
    bk.qRunStart.push_back(int(bk.qJ.size()));
    bk.goRunStart.push_back(int(bk.goJ.size()));
    // Over-allocate each j / qq channel by a vector width of sentinel
    // entries (slot 0, charge 0). The kernels compute a run's sub-width
    // tail as one full-width masked block, so the channel loads read up
    // to width - 1 entries past the last real pair; the masked lanes
    // never contribute and are never written back.
    for (int t = 0; t < kernels_.width; ++t) {
        bk.ljJ.push_back(0);
        bk.qJ.push_back(0);
        bk.qq.push_back(0.0);
        bk.goJ.push_back(0);
    }
    bk.sourceBuild = neighborList_.numBuilds();
}

void ForceField::computeNonbondedSoa(const std::vector<Vec3>& positions,
                                     std::vector<Vec3>& forces, Energies& e) {
    const std::size_t n = positions.size();
    const bool threaded = pool_ != nullptr && pool_->size() > 1;
    const std::size_t maxChunks = threaded ? pool_->size() + 1 : 1;
    ws_.ensure(n, maxChunks);
    splitPairBuckets(positions);
    const auto& bk = ws_.buckets;

    // Scatter positions into SoA slots, in cell order when available (the
    // buckets were renumbered the same way by splitPairBuckets). Wrapped
    // buckets work on wrapped coordinates: the frozen per-slot offsets are
    // exact multiples of the box lengths, applied every step so wrapped
    // positions move continuously between rebuilds.
    const auto& ord = neighborList_.cellOrder();
    const bool reordered = ord.size() == n;
    if (bk.wrapped) {
        for (std::size_t r = 0; r < n; ++r) {
            const auto a = std::size_t(ord[r]);
            ws_.pos3[3 * r] = positions[a].x + ws_.o3[3 * r];
            ws_.pos3[3 * r + 1] = positions[a].y + ws_.o3[3 * r + 1];
            ws_.pos3[3 * r + 2] = positions[a].z + ws_.o3[3 * r + 2];
        }
    } else if (reordered) {
        for (std::size_t r = 0; r < n; ++r) {
            const auto a = std::size_t(ord[r]);
            ws_.pos3[3 * r] = positions[a].x;
            ws_.pos3[3 * r + 1] = positions[a].y;
            ws_.pos3[3 * r + 2] = positions[a].z;
        }
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            ws_.pos3[3 * i] = positions[i].x;
            ws_.pos3[3 * i + 1] = positions[i].y;
            ws_.pos3[3 * i + 2] = positions[i].z;
        }
    }

    SoaParams k;
    k.cut2 = params_.cutoff * params_.cutoff;
    if (box_.periodic) {
        k.Lx = box_.lengths.x;
        k.Ly = box_.lengths.y;
        k.Lz = box_.lengths.z;
        k.iLx = 1.0 / k.Lx;
        k.iLy = 1.0 / k.Ly;
        k.iLz = 1.0 / k.Lz;
    }
    const double rc = params_.cutoff;
    const double epsRF = params_.rfDielectric;
    k.kRF = (epsRF - 1.0) / ((2.0 * epsRF + 1.0) * rc * rc * rc);
    k.cRF = 1.0 / rc + k.kRF * rc * rc;
    k.sig2 = params_.ljSigma * params_.ljSigma;
    k.eps4 = 4.0 * params_.ljEpsilon;
    k.eps24 = 24.0 * params_.ljEpsilon;
    if (params_.kind == NonbondedKind::LennardJonesRF && params_.shiftLJ) {
        const double s2 = k.sig2 / k.cut2;
        const double s6 = s2 * s2 * s2;
        k.ljShift = k.eps4 * (s6 * s6 - s6);
    }
    k.repSig2 = params_.repSigma * params_.repSigma;
    k.repEps = params_.repEpsilon;
    if (bk.shifted) {
        for (int c = 0; c < 27; ++c) {
            k.tabX[c] = -double(c / 9 - 1) * box_.lengths.x;
            k.tabY[c] = -double((c / 3) % 3 - 1) * box_.lengths.y;
            k.tabZ[c] = -double(c % 3 - 1) * box_.lengths.z;
        }
    }

    const double* xyz = ws_.pos3.data();

    // Runs slice `c` of `nSlices` of every bucket, accumulating into the
    // given force-triplet array and energy slots. Buckets are sliced on
    // run boundaries (runs average a couple dozen pairs, so the per-chunk
    // imbalance is negligible) and each bucket is sliced independently to
    // keep chunks balanced regardless of the LJ/charged/Gō mix.
    const int sh = bk.shifted ? 1 : 0;
    auto runSlice = [&](std::size_t c, std::size_t nSlices, double* f,
                        double& enb, double& ecoul) {
        auto slice = [&](std::size_t len) {
            return std::pair<std::size_t, std::size_t>{c * len / nSlices,
                                                       (c + 1) * len / nSlices};
        };
        const auto [ljLo, ljHi] = slice(bk.ljRunI.size());
        if (ljLo < ljHi)
            kernels_.lj[sh](bk.ljRunI.data(), bk.ljRunStart.data(),
                            bk.ljJ.data(),
                            bk.shifted ? bk.ljRunS.data() : nullptr, nullptr,
                            ljLo, ljHi, xyz, f, k, enb, ecoul);
        const auto [qLo, qHi] = slice(bk.qRunI.size());
        if (qLo < qHi)
            kernels_.ljCoul[sh](bk.qRunI.data(), bk.qRunStart.data(),
                                bk.qJ.data(),
                                bk.shifted ? bk.qRunS.data() : nullptr,
                                bk.qq.data(), qLo, qHi, xyz, f, k, enb,
                                ecoul);
        const auto [goLo, goHi] = slice(bk.goRunI.size());
        if (goLo < goHi)
            kernels_.go[sh](bk.goRunI.data(), bk.goRunStart.data(),
                            bk.goJ.data(),
                            bk.shifted ? bk.goRunS.data() : nullptr, nullptr,
                            goLo, goHi, xyz, f, k, enb, ecoul);
    };

    const std::size_t nPairs =
        bk.ljJ.size() + bk.qJ.size() + bk.goJ.size();

    if (!threaded || nPairs < 1024) {
        // f3 is all-zero on entry: it is value-initialized when allocated
        // and the writeback below re-zeroes every slot it reads (the
        // threaded path never touches it), so the kernels accumulate into
        // a clean buffer without a separate O(N) clear.
        double enb = 0.0, ecoul = 0.0;
        runSlice(0, 1, ws_.f3.data(), enb, ecoul);
        double* f3 = ws_.f3.data();
        if (reordered) {
            for (std::size_t r = 0; r < n; ++r) {
                forces[std::size_t(ord[r])] +=
                    Vec3{f3[3 * r], f3[3 * r + 1], f3[3 * r + 2]};
                f3[3 * r] = f3[3 * r + 1] = f3[3 * r + 2] = 0.0;
            }
        } else {
            for (std::size_t i = 0; i < n; ++i) {
                forces[i] += Vec3{f3[3 * i], f3[3 * i + 1], f3[3 * i + 2]};
                f3[3 * i] = f3[3 * i + 1] = f3[3 * i + 2] = 0.0;
            }
        }
        e.nonbonded += enb;
        e.coulomb += ecoul;
        return;
    }

    // Threaded path: each chunk owns one padded force-triplet stripe
    // (zeroed by its owner, so no O(chunks * N) serial clearing), then a
    // striped parallel reduction folds all stripes into the caller's force
    // array — O(N) wall-clock regardless of thread count, no allocation.
    const std::size_t nChunks = maxChunks;
    const std::size_t stride3 = 3 * ws_.stride;
    pool_->forChunks(0, nChunks, [&](std::size_t, std::size_t cLo,
                                     std::size_t cHi) {
        for (std::size_t c = cLo; c < cHi; ++c) {
            double* f = ws_.sf3.data() + c * stride3;
            std::fill_n(f, 3 * n, 0.0);
            ws_.enb[c] = ws_.ecoul[c] = 0.0;
            runSlice(c, nChunks, f, ws_.enb[c], ws_.ecoul[c]);
        }
    });
    pool_->forChunks(0, n, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            double sx = 0.0, sy = 0.0, sz = 0.0;
            for (std::size_t c = 0; c < nChunks; ++c) {
                const double* f = ws_.sf3.data() + c * stride3 + 3 * i;
                sx += f[0];
                sy += f[1];
                sz += f[2];
            }
            // ord is a permutation, so the scattered writes of disjoint
            // index chunks never collide.
            forces[reordered ? std::size_t(ord[i]) : i] += Vec3{sx, sy, sz};
        }
    });
    for (std::size_t c = 0; c < nChunks; ++c) {
        e.nonbonded += ws_.enb[c];
        e.coulomb += ws_.ecoul[c];
    }
}

} // namespace cop::md
