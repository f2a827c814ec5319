#pragma once

/// \file pdb.hpp
/// Minimal PDB output for Calpha traces, so folded structures from the
/// examples and benches can be inspected in any molecular viewer.
/// Coordinates are converted from reduced units to Angstrom.

#include <string>
#include <vector>

#include "util/vec3.hpp"

namespace cop::md {

/// Renders a Calpha-only PDB (one ALA residue per bead, chain A), with an
/// optional second MODEL for a reference structure (e.g. the native state
/// for visual superposition).
std::string pdbString(const std::vector<Vec3>& positions,
                      const std::string& title = "copernicus-cpp model");

/// Multi-model PDB (e.g. a trajectory or a predicted-vs-native pair).
std::string pdbString(const std::vector<std::vector<Vec3>>& models,
                      const std::string& title = "copernicus-cpp model");

} // namespace cop::md
