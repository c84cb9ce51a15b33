// Stripe model: a rows x cols grid of fixed-size *elements* (paper Fig. 1).
//
// Each column is a *strip* — one disk's contribution to the stripe — stored
// as a contiguous buffer of rows*element_size bytes. Array-code "bits" map
// to elements: all coding operates on whole elements via the xorops
// kernels, which encodes/decodes element_size*8 codewords in parallel
// (the interleaving described in paper Section II-A).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "liberation/util/aligned_buffer.hpp"
#include "liberation/util/assert.hpp"
#include "liberation/util/rng.hpp"

namespace liberation::codes {

/// Non-owning view of a stripe. Cheap to copy; column pointers are held by
/// the creator (usually a stripe_buffer or the RAID array's strip cache).
///
/// A view may be a *packet view*: a window of `element_size` bytes at a
/// fixed offset inside each element of a parent view whose elements are
/// `stride` bytes apart. Coding algorithms run unchanged over packet views;
/// the wrappers use them to keep the live stripe footprint cache-resident
/// (the packetization technique of Jerasure's scheduled operations).
class stripe_view {
public:
    stripe_view(std::span<std::byte* const> columns, std::uint32_t rows,
                std::size_t element_size) noexcept
        : cols_(columns),
          rows_(rows),
          elem_(element_size),
          stride_(element_size) {
        LIBERATION_EXPECTS(rows > 0 && element_size > 0);
    }

    [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::uint32_t cols() const noexcept {
        return static_cast<std::uint32_t>(cols_.size());
    }
    [[nodiscard]] std::size_t element_size() const noexcept { return elem_; }
    [[nodiscard]] std::size_t strip_size() const noexcept {
        return rows_ * elem_;
    }

    /// Mutable element region at (row, col).
    [[nodiscard]] std::byte* element(std::uint32_t row,
                                     std::uint32_t col) const noexcept {
        LIBERATION_EXPECTS(row < rows_ && col < cols_.size());
        return cols_[col] + static_cast<std::size_t>(row) * stride_ + offset_;
    }

    [[nodiscard]] std::span<std::byte> element_span(
        std::uint32_t row, std::uint32_t col) const noexcept {
        return {element(row, col), elem_};
    }

    /// Whole strip (column) buffer. Only valid on non-packet views.
    [[nodiscard]] std::span<std::byte> strip(std::uint32_t col) const noexcept {
        LIBERATION_EXPECTS(col < cols_.size());
        LIBERATION_EXPECTS(stride_ == elem_ && offset_ == 0);
        return {cols_[col], strip_size()};
    }

    /// Window of `size` bytes at `offset` within each element.
    [[nodiscard]] stripe_view packet_view(std::size_t offset,
                                          std::size_t size) const noexcept {
        LIBERATION_EXPECTS(offset + size <= elem_);
        stripe_view v = *this;
        v.elem_ = size;
        v.offset_ = offset_ + offset;
        return v;
    }

private:
    std::span<std::byte* const> cols_;
    std::uint32_t rows_;
    std::size_t elem_;    ///< bytes per element visible to coding ops
    std::size_t stride_;  ///< bytes between consecutive rows in a strip
    std::size_t offset_ = 0;
};

/// Packet size that keeps `live_elements` concurrently touched element
/// windows within a 1 MiB budget (L2-resident): element_size when the whole
/// window already fits, otherwise the largest power of two that fits, with
/// a 1 KiB floor. Returns element_size itself when the packet would not be
/// smaller or does not split it evenly — complexity probes with tiny
/// elements then run as a single packet and XOR counts are unaffected.
[[nodiscard]] std::size_t preferred_packet_size(std::size_t live_elements,
                                                std::size_t element_size) noexcept;

/// Owning stripe: one aligned allocation per column strip.
class stripe_buffer {
public:
    stripe_buffer(std::uint32_t rows, std::uint32_t cols,
                  std::size_t element_size)
        : rows_(rows), elem_(element_size) {
        LIBERATION_EXPECTS(rows > 0 && cols > 0 && element_size > 0);
        strips_.reserve(cols);
        ptrs_.reserve(cols);
        for (std::uint32_t c = 0; c < cols; ++c) {
            strips_.emplace_back(static_cast<std::size_t>(rows) * elem_);
            ptrs_.push_back(strips_.back().data());
        }
    }

    [[nodiscard]] stripe_view view() noexcept {
        return stripe_view{{ptrs_.data(), ptrs_.size()}, rows_, elem_};
    }

    [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::uint32_t cols() const noexcept {
        return static_cast<std::uint32_t>(strips_.size());
    }
    [[nodiscard]] std::size_t element_size() const noexcept { return elem_; }

    /// Fill the first `data_cols` strips with deterministic pseudo-random
    /// bytes and zero the rest (parity will be computed by an encoder).
    void fill_random(util::xoshiro256& rng, std::uint32_t data_cols);

    /// Zero every strip.
    void zero();

private:
    std::vector<util::aligned_buffer> strips_;
    std::vector<std::byte*> ptrs_;
    std::uint32_t rows_;
    std::size_t elem_;
};

/// Element-wise equality of two stripes (same geometry required).
[[nodiscard]] bool stripes_equal(const stripe_view& a, const stripe_view& b) noexcept;

/// Byte-wise equality of one column across two stripes.
[[nodiscard]] bool strips_equal(const stripe_view& a, const stripe_view& b,
                                std::uint32_t col) noexcept;

/// Copy stripe contents (same geometry required).
void copy_stripe(const stripe_view& dst, const stripe_view& src) noexcept;

}  // namespace liberation::codes
