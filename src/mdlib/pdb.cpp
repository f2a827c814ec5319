#include "mdlib/pdb.hpp"

#include <cstdio>

#include "mdlib/units.hpp"

namespace cop::md {

namespace {

void appendModel(std::string& out, const std::vector<Vec3>& positions,
                 int modelIndex, bool multiModel) {
    // Room for the longest line snprintf can format (%8.3f of any finite
    // double), so no record is ever cut short.
    char line[1088];
    if (multiModel) {
        std::snprintf(line, sizeof(line), "MODEL     %4d\n", modelIndex);
        out += line;
    }
    for (std::size_t i = 0; i < positions.size(); ++i) {
        std::snprintf(line, sizeof(line),
                      "ATOM  %5zu  CA  ALA A%4zu    %8.3f%8.3f%8.3f"
                      "  1.00  0.00           C\n",
                      i + 1, i + 1, toAngstrom(positions[i].x),
                      toAngstrom(positions[i].y),
                      toAngstrom(positions[i].z));
        out += line;
    }
    out += multiModel ? "ENDMDL\n" : "TER\n";
}

} // namespace

std::string pdbString(const std::vector<Vec3>& positions,
                      const std::string& title) {
    return pdbString(std::vector<std::vector<Vec3>>{positions}, title);
}

std::string pdbString(const std::vector<std::vector<Vec3>>& models,
                      const std::string& title) {
    std::string out = "TITLE     " + title + "\n";
    const bool multi = models.size() > 1;
    for (std::size_t m = 0; m < models.size(); ++m)
        appendModel(out, models[m], int(m + 1), multi);
    out += "END\n";
    return out;
}

} // namespace cop::md
