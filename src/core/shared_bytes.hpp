#pragma once

/// \file shared_bytes.hpp
/// Copy-on-write byte payload shared across the scheduling data plane.
/// Command inputs and checkpoints travel as one immutable heap buffer
/// referenced by CommandSpec, the in-flight table, the lease-side
/// checkpoint cache and outgoing WorkerFailed payloads: handing a blob
/// from one holder to another bumps a refcount instead of duplicating
/// megabyte-scale checkpoint vectors. Buffers are never mutated in place
/// — writers always build a fresh vector and wrap it — so sharing is
/// safe without synchronization in the single-threaded event loop.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

namespace cop::core {

/// Decode-allocation cap for every codec frame the server decodes (cold
/// blob-store fetches, checkpoint blobs in WAL records): a hostile frame
/// cannot make the decoder allocate more than this.
inline constexpr std::size_t kMaxBlobBytes = std::size_t(1) << 30;

class SharedBytes {
public:
    SharedBytes() = default;

    /// Literal payloads (tests, small fixed inputs).
    SharedBytes(std::initializer_list<std::uint8_t> bytes)
        : SharedBytes(std::vector<std::uint8_t>(bytes)) {}

    /// Adopts an rvalue buffer without copying its bytes.
    SharedBytes(std::vector<std::uint8_t>&& bytes)
        : data_(bytes.empty()
                    ? nullptr
                    : std::make_shared<const std::vector<std::uint8_t>>(
                          std::move(bytes))) {}

    /// Deep-copies an lvalue buffer (pass std::move or a temporary to
    /// share instead).
    SharedBytes(const std::vector<std::uint8_t>& bytes)
        : data_(bytes.empty()
                    ? nullptr
                    : std::make_shared<const std::vector<std::uint8_t>>(
                          bytes)) {}

    const std::vector<std::uint8_t>& bytes() const {
        static const std::vector<std::uint8_t> kEmpty;
        return data_ ? *data_ : kEmpty;
    }

    /// Implicit view conversion so decode()/restore()-style span consumers
    /// keep working unchanged.
    operator std::span<const std::uint8_t>() const { return bytes(); }

    bool empty() const { return !data_ || data_->empty(); }
    std::size_t size() const { return data_ ? data_->size() : 0; }

    /// True when both refer to the exact same heap buffer (zero-copy
    /// sharing actually happened, not just equal contents).
    bool sharesBufferWith(const SharedBytes& other) const {
        return data_ != nullptr && data_ == other.data_;
    }

    /// Holders of the underlying buffer (0 for the empty payload).
    long useCount() const { return data_ ? data_.use_count() : 0; }

    friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
        return a.bytes() == b.bytes();
    }
    friend bool operator==(const SharedBytes& a,
                           const std::vector<std::uint8_t>& b) {
        return a.bytes() == b;
    }
    friend bool operator==(const std::vector<std::uint8_t>& a,
                           const SharedBytes& b) {
        return a == b.bytes();
    }

private:
    std::shared_ptr<const std::vector<std::uint8_t>> data_;
};

} // namespace cop::core
