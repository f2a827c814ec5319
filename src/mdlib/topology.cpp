#include "mdlib/topology.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace cop::md {

Topology::Topology(std::size_t nParticles) {
    masses_.assign(nParticles, 1.0);
    charges_.assign(nParticles, 0.0);
}

void Topology::addParticle(double mass, double charge) {
    COP_REQUIRE(mass > 0.0, "particle mass must be positive");
    COP_REQUIRE(!finalized_, "cannot add particles after finalize()");
    masses_.push_back(mass);
    charges_.push_back(charge);
}

void Topology::addBond(Bond b) {
    COP_REQUIRE(b.i != b.j, "bond endpoints must differ");
    COP_REQUIRE(b.r0 > 0.0 && b.k >= 0.0, "invalid bond parameters");
    COP_REQUIRE(!finalized_, "cannot add bonds after finalize()");
    bonds_.push_back(b);
}

void Topology::addAngle(Angle a) {
    COP_REQUIRE(a.i != a.j && a.j != a.k && a.i != a.k,
                "angle particles must be distinct");
    COP_REQUIRE(a.forceK >= 0.0, "invalid angle parameters");
    COP_REQUIRE(!finalized_, "cannot add angles after finalize()");
    angles_.push_back(a);
}

void Topology::addDihedral(Dihedral d) {
    COP_REQUIRE(d.i != d.j && d.j != d.k && d.k != d.l && d.i != d.l,
                "dihedral particles must be distinct");
    COP_REQUIRE(!finalized_, "cannot add dihedrals after finalize()");
    dihedrals_.push_back(d);
}

void Topology::addContact(Contact c) {
    COP_REQUIRE(c.i != c.j, "contact endpoints must differ");
    COP_REQUIRE(c.r0 > 0.0 && c.eps >= 0.0, "invalid contact parameters");
    COP_REQUIRE(!finalized_, "cannot add contacts after finalize()");
    contacts_.push_back(c);
}

bool Topology::isExcluded(int i, int j) const {
    COP_ENSURE(finalized_, "topology not finalized");
    const auto& ex = exclusions_[std::size_t(i)];
    return std::binary_search(ex.begin(), ex.end(), j);
}

const std::vector<int>& Topology::exclusions(std::size_t i) const {
    COP_ENSURE(finalized_, "topology not finalized");
    return exclusions_[i];
}

void Topology::exclude(int i, int j) {
    exclusions_[std::size_t(i)].push_back(j);
    exclusions_[std::size_t(j)].push_back(i);
}

void Topology::finalize() {
    if (finalized_) return;
    const int n = int(numParticles());
    auto check = [n](int idx) {
        COP_REQUIRE(idx >= 0 && idx < n, "topology index out of range");
    };
    exclusions_.assign(numParticles(), {});
    for (const auto& b : bonds_) {
        check(b.i);
        check(b.j);
        exclude(b.i, b.j);
    }
    for (const auto& a : angles_) {
        check(a.i);
        check(a.j);
        check(a.k);
        exclude(a.i, a.k); // 1-3 pair; 1-2 pairs covered by bonds
    }
    for (auto& d : dihedrals_) {
        check(d.i);
        check(d.j);
        check(d.k);
        check(d.l);
        exclude(d.i, d.l); // 1-4 pair
        d.cosPhi0 = std::cos(d.phi0);
        d.sinPhi0 = std::sin(d.phi0);
    }
    for (const auto& c : contacts_) {
        check(c.i);
        check(c.j);
        exclude(c.i, c.j); // contacts handled by their own kernel
    }
    for (auto& ex : exclusions_) {
        std::sort(ex.begin(), ex.end());
        ex.erase(std::unique(ex.begin(), ex.end()), ex.end());
    }
    finalized_ = true;
}

std::string Topology::summary() const {
    std::ostringstream oss;
    oss << numParticles() << " particles, " << bonds_.size() << " bonds, "
        << angles_.size() << " angles, " << dihedrals_.size()
        << " dihedrals, " << contacts_.size() << " native contacts";
    return oss.str();
}

void Topology::serialize(BinaryWriter& w) const {
    w.writeHeader("CTOP", 1);
    w.write(masses_);
    w.write(charges_);
    w.write(std::uint64_t(bonds_.size()));
    for (const auto& b : bonds_) {
        w.write(std::int32_t(b.i));
        w.write(std::int32_t(b.j));
        w.write(b.r0);
        w.write(b.k);
    }
    w.write(std::uint64_t(angles_.size()));
    for (const auto& a : angles_) {
        w.write(std::int32_t(a.i));
        w.write(std::int32_t(a.j));
        w.write(std::int32_t(a.k));
        w.write(a.theta0);
        w.write(a.forceK);
    }
    w.write(std::uint64_t(dihedrals_.size()));
    for (const auto& d : dihedrals_) {
        w.write(std::int32_t(d.i));
        w.write(std::int32_t(d.j));
        w.write(std::int32_t(d.k));
        w.write(std::int32_t(d.l));
        w.write(d.phi0);
        w.write(d.k1);
        w.write(d.k3);
    }
    w.write(std::uint64_t(contacts_.size()));
    for (const auto& c : contacts_) {
        w.write(std::int32_t(c.i));
        w.write(std::int32_t(c.j));
        w.write(c.r0);
        w.write(c.eps);
    }
}

Topology Topology::deserialize(BinaryReader& r) {
    const auto version = r.readHeader("CTOP");
    COP_IO_CHECK(version == 1, "unsupported topology version");
    Topology t;
    t.masses_ = r.readVector<double>();
    t.charges_ = r.readVector<double>();
    const auto nb = r.read<std::uint64_t>();
    for (std::uint64_t x = 0; x < nb; ++x) {
        Bond b{};
        b.i = r.read<std::int32_t>();
        b.j = r.read<std::int32_t>();
        b.r0 = r.read<double>();
        b.k = r.read<double>();
        t.bonds_.push_back(b);
    }
    const auto na = r.read<std::uint64_t>();
    for (std::uint64_t x = 0; x < na; ++x) {
        Angle a{};
        a.i = r.read<std::int32_t>();
        a.j = r.read<std::int32_t>();
        a.k = r.read<std::int32_t>();
        a.theta0 = r.read<double>();
        a.forceK = r.read<double>();
        t.angles_.push_back(a);
    }
    const auto nd = r.read<std::uint64_t>();
    for (std::uint64_t x = 0; x < nd; ++x) {
        Dihedral d{};
        d.i = r.read<std::int32_t>();
        d.j = r.read<std::int32_t>();
        d.k = r.read<std::int32_t>();
        d.l = r.read<std::int32_t>();
        d.phi0 = r.read<double>();
        d.k1 = r.read<double>();
        d.k3 = r.read<double>();
        t.dihedrals_.push_back(d);
    }
    const auto nc = r.read<std::uint64_t>();
    for (std::uint64_t x = 0; x < nc; ++x) {
        Contact c{};
        c.i = r.read<std::int32_t>();
        c.j = r.read<std::int32_t>();
        c.r0 = r.read<double>();
        c.eps = r.read<double>();
        t.contacts_.push_back(c);
    }
    t.finalize();
    return t;
}

} // namespace cop::md
