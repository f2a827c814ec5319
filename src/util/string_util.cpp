#include "util/string_util.hpp"

#include <cctype>
#include <cstdio>

namespace cop {

std::vector<std::string> split(const std::string& s, char delim) {
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == delim) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

std::string trim(const std::string& s) {
    auto isSpace = [](unsigned char c) { return std::isspace(c) != 0; };
    std::size_t b = 0, e = s.size();
    while (b < e && isSpace(s[b])) ++b;
    while (e > b && isSpace(s[e - 1])) --e;
    return s.substr(b, e - b);
}

bool startsWith(const std::string& s, const std::string& prefix) {
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i) out += sep;
        out += parts[i];
    }
    return out;
}

std::string formatFixed(double v, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string formatHours(double hours) {
    if (hours >= 48.0) {
        const int d = int(hours / 24.0);
        return std::to_string(d) + "d " +
               formatFixed(hours - 24.0 * d, 1) + "h";
    }
    if (hours >= 1.0) {
        const int h = int(hours);
        const int m = int((hours - h) * 60.0);
        return std::to_string(h) + "h " + std::to_string(m) + "m";
    }
    return formatFixed(hours * 60.0, 1) + "m";
}

} // namespace cop
