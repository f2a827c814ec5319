#pragma once

/// \file topology.hpp
/// Molecular topology: particles, bonded interaction lists, native-contact
/// pair lists and exclusions. This plays the role of Gromacs' .top/.tpr
/// content for our coarse-grained engine.

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "util/serialize.hpp"

namespace cop::md {

/// Harmonic bond: E = 0.5 * k * (r - r0)^2.
struct Bond {
    int i, j;
    double r0;
    double k;
};

/// Harmonic angle: E = 0.5 * k * (theta - theta0)^2, theta in radians.
struct Angle {
    int i, j, k;
    double theta0;
    double forceK;
};

/// Dihedral in the standard Gō-model double-cosine form:
/// E = k1 * (1 - cos(phi - phi0)) + k3 * (1 - cos(3 * (phi - phi0))).
struct Dihedral {
    int i, j, k, l;
    double phi0;
    double k1;
    double k3;
    /// cos(phi0) and sin(phi0), derived by Topology::finalize() (not
    /// serialized). NaN until then, so a term evaluated before
    /// finalize() shows up as a NaN energy, not a silently wrong one.
    double cosPhi0 = std::numeric_limits<double>::quiet_NaN();
    double sinPhi0 = std::numeric_limits<double>::quiet_NaN();
};

/// Native contact with a 12-10 Lennard-Jones-like potential:
/// E = eps * (5 * (r0/r)^12 - 6 * (r0/r)^10); minimum of depth -eps at r0.
struct Contact {
    int i, j;
    double r0;
    double eps;
};

/// Full system topology. Invariant: all indices < numParticles().
class Topology {
public:
    Topology() = default;
    explicit Topology(std::size_t nParticles);

    std::size_t numParticles() const { return masses_.size(); }

    void addParticle(double mass, double charge = 0.0);
    double mass(std::size_t i) const { return masses_[i]; }
    double charge(std::size_t i) const { return charges_[i]; }
    const std::vector<double>& masses() const { return masses_; }

    void addBond(Bond b);
    void addAngle(Angle a);
    void addDihedral(Dihedral d);
    void addContact(Contact c);

    const std::vector<Bond>& bonds() const { return bonds_; }
    const std::vector<Angle>& angles() const { return angles_; }
    const std::vector<Dihedral>& dihedrals() const { return dihedrals_; }
    const std::vector<Contact>& contacts() const { return contacts_; }

    /// Pairs excluded from generic nonbonded interactions. Bonds, angle
    /// 1-3 pairs and native contacts are excluded automatically by
    /// finalize().
    bool isExcluded(int i, int j) const;
    /// Particle i's excluded partners, sorted ascending and unique.
    const std::vector<int>& exclusions(std::size_t i) const;

    /// Builds the exclusion table and validates all indices. Must be called
    /// after the last add*() and before simulation. Idempotent.
    void finalize();
    bool finalized() const { return finalized_; }

    /// Human-readable one-line summary.
    std::string summary() const;

    void serialize(BinaryWriter& w) const;
    static Topology deserialize(BinaryReader& r);

private:
    void exclude(int i, int j);

    std::vector<double> masses_;
    std::vector<double> charges_;
    std::vector<Bond> bonds_;
    std::vector<Angle> angles_;
    std::vector<Dihedral> dihedrals_;
    std::vector<Contact> contacts_;
    // Exclusions as a sorted adjacency list per particle.
    std::vector<std::vector<int>> exclusions_;
    bool finalized_ = false;
};

} // namespace cop::md
