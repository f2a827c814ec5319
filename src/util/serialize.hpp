#pragma once

/// \file serialize.hpp
/// Portable little-endian binary serialization used for checkpoints,
/// trajectory files and network message payloads. Format: raw little-endian
/// scalars, length-prefixed strings/vectors, with an optional magic+version
/// header helper for file formats.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.hpp"
#include "util/vec3.hpp"

namespace cop {

/// Appends encoded values to an internal byte buffer.
class BinaryWriter {
public:
    const std::vector<std::uint8_t>& buffer() const { return buf_; }
    std::vector<std::uint8_t> takeBuffer() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

    /// Drops the contents but keeps the capacity — reusing one writer
    /// across many small encodes skips the per-encode allocation.
    void clear() { buf_.clear(); }

    template <typename T>
        requires std::is_arithmetic_v<T>
    void write(T v) {
        // Assume little-endian host (x86/ARM); static_assert documents it.
        static_assert(sizeof(T) <= 8);
        const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
        buf_.insert(buf_.end(), p, p + sizeof(T));
    }

    void write(const Vec3& v) {
        write(v.x);
        write(v.y);
        write(v.z);
    }

    void write(const std::string& s) {
        write(std::uint64_t(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    template <typename T>
    void write(const std::vector<T>& v) {
        write(std::uint64_t(v.size()));
        for (const auto& x : v) write(x);
    }

    void writeBytes(std::span<const std::uint8_t> bytes) {
        write(std::uint64_t(bytes.size()));
        buf_.insert(buf_.end(), bytes.begin(), bytes.end());
    }

    /// Writes a 4-char magic tag plus a format version.
    void writeHeader(const char magic[4], std::uint32_t version) {
        buf_.insert(buf_.end(), magic, magic + 4);
        write(version);
    }

private:
    std::vector<std::uint8_t> buf_;
};

/// Reads encoded values from a byte span; throws IoError on truncation.
class BinaryReader {
public:
    explicit BinaryReader(std::span<const std::uint8_t> data)
        : data_(data) {}

    std::size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return remaining() == 0; }

    template <typename T>
        requires std::is_arithmetic_v<T>
    T read() {
        require(sizeof(T));
        T v;
        std::memcpy(&v, data_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }

    Vec3 readVec3() {
        Vec3 v;
        v.x = read<double>();
        v.y = read<double>();
        v.z = read<double>();
        return v;
    }

    std::string readString() {
        const auto n = readCount(1);
        std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                      std::size_t(n));
        pos_ += std::size_t(n);
        return s;
    }

    template <typename T>
        requires std::is_arithmetic_v<T>
    std::vector<T> readVector() {
        const auto n = readCount(sizeof(T));
        std::vector<T> v;
        v.reserve(std::size_t(n));
        for (std::uint64_t i = 0; i < n; ++i) v.push_back(read<T>());
        return v;
    }

    std::vector<Vec3> readVec3Vector() {
        const auto n = readCount(3 * sizeof(double));
        std::vector<Vec3> v;
        v.reserve(std::size_t(n));
        for (std::uint64_t i = 0; i < n; ++i) v.push_back(readVec3());
        return v;
    }

    std::vector<std::uint8_t> readBytes() {
        const auto n = readCount(1);
        const auto* p = data_.data() + pos_;
        std::vector<std::uint8_t> v(p, p + std::size_t(n));
        pos_ += std::size_t(n);
        return v;
    }

    /// Validates a 4-char magic tag and returns the version that follows.
    std::uint32_t readHeader(const char magic[4]) {
        require(4);
        if (std::memcmp(data_.data() + pos_, magic, 4) != 0)
            throw IoError("bad magic in serialized stream");
        pos_ += 4;
        return read<std::uint32_t>();
    }

    /// Reads a 64-bit length prefix and validates it against the bytes
    /// actually left in the buffer BEFORE the caller allocates anything:
    /// `n` elements of `elemSize` bytes each must still be present. A
    /// corrupt envelope therefore throws IoError instead of demanding a
    /// multi-GiB reserve(); the untrusted-arithmetic form `n > rem / size`
    /// also cannot overflow, unlike `pos_ + n * size`.
    std::uint64_t readCount(std::size_t elemSize) {
        const auto n = read<std::uint64_t>();
        if (n > remaining() / elemSize)
            throw IoError(
                "corrupt length prefix: " + std::to_string(n) +
                " elements of " + std::to_string(elemSize) +
                " bytes declared, only " + std::to_string(remaining()) +
                " bytes remain");
        return n;
    }

private:
    void require(std::size_t n) const {
        if (remaining() < n)
            throw IoError("truncated serialized stream: need " +
                          std::to_string(n) + " bytes, have " +
                          std::to_string(remaining()));
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
};

// Overloads so BinaryWriter::write(std::vector<Vec3>) compiles.
template <>
inline void BinaryWriter::write<Vec3>(const std::vector<Vec3>& v) {
    write(std::uint64_t(v.size()));
    for (const auto& x : v) write(x);
}

/// Writes the buffer atomically-ish to `path` (write to temp then rename).
void writeFile(const std::string& path,
               std::span<const std::uint8_t> bytes);

/// Reads a whole file; throws IoError if it cannot be opened.
std::vector<std::uint8_t> readFile(const std::string& path);

} // namespace cop
