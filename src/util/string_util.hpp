#pragma once

/// \file string_util.hpp
/// Small string helpers shared by the CLI examples, the logging layer and
/// the network message codecs.

#include <string>
#include <vector>

namespace cop {

std::vector<std::string> split(const std::string& s, char delim);
std::string trim(const std::string& s);
bool startsWith(const std::string& s, const std::string& prefix);

/// Joins parts with `sep` between them.
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Fixed-precision formatting (printf "%.*f").
std::string formatFixed(double v, int precision);

/// Formats a duration in hours as "Xd Yh", "Xh Ym" or "Xm" as appropriate.
std::string formatHours(double hours);

} // namespace cop
