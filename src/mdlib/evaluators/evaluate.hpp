#pragma once

/// \file evaluators/evaluate.hpp
/// The one templated inner loop every bonded interaction family runs
/// through. An evaluator is a stateless struct with
///
///   static double evaluate(const Term& t, const std::vector<Vec3>& pos,
///                          const Box& box, std::vector<Vec3>& forces);
///
/// returning the term's energy and accumulating forces. The loop below
/// sums terms in container order — the exact order the pre-refactor
/// monolithic computeBonded used, so bonds, angles and contacts are
/// bit-identical to it on identical inputs, and the trig-free dihedral
/// matches its libm form within 1e-12 relative (both pinned by
/// ForceField.BondedEvaluatorsBitIdenticalToMonolith).
///
/// This split is the backend seam: a GPU backend implements one
/// device loop per family against the same Term types, and the CPU
/// evaluators in bond/angle/dihedral/contact.hpp double as its
/// reference semantics. Keep evaluators header-only and free of state —
/// they are compiled into whatever TU instantiates the loop.

#include <vector>

#include "mdlib/pbc.hpp"
#include "util/vec3.hpp"

namespace cop::md::evaluators {

template <class Evaluator, class Term>
double evaluateFamily(const std::vector<Term>& terms,
                      const std::vector<Vec3>& positions, const Box& box,
                      std::vector<Vec3>& forces) {
    double energy = 0.0;
    for (const Term& t : terms)
        energy += Evaluator::evaluate(t, positions, box, forces);
    return energy;
}

} // namespace cop::md::evaluators
