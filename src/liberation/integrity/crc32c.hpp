// CRC32C (Castagnoli) kernel: the checksum currency of the integrity
// layer, mirroring the xorops kernel conventions (plain-pointer kernels,
// span-flavoured overloads, runtime-dispatched implementations).
//
// Two implementations sit behind one entry point:
//   * software — slice-by-8 table lookup, portable, ~1-2 GiB/s;
//   * hardware — the SSE4.2 `crc32` instruction (x86) or the ARMv8 CRC
//     extension, selected at runtime when the CPU reports support.
//
// The polynomial is the Castagnoli one (0x1EDC6F41, reflected 0x82F63B78),
// i.e. the CRC used by iSCSI, ext4 metadata and btrfs — chosen over
// CRC32/ISO for its better Hamming distance at 4 KiB block sizes, which is
// exactly the granularity the integrity regions checksum at.
//
// Convention: crc32c(data, n) starts from seed 0 and includes the standard
// pre/post inversion, so crc32c("123456789") == 0xE3069283 (the check
// value every CRC32C implementation must reproduce). Passing a previous
// result as `seed` continues the stream:
//   crc32c(a ++ b) == crc32c(b, crc32c(a)).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace liberation::integrity {

enum class crc32c_impl : std::uint8_t { software, hardware };

/// The implementation crc32c() currently dispatches to. Hardware is picked
/// automatically when the CPU supports it.
[[nodiscard]] crc32c_impl active_impl() noexcept;

/// True when this CPU can run the hardware path.
[[nodiscard]] bool hardware_available() noexcept;

/// Pin the dispatched implementation (tests and the crc32c bench compare
/// the two paths). Forcing hardware requires hardware_available().
void force_impl(crc32c_impl impl) noexcept;

/// CRC32C of [data, data+n), continuing from `seed` (0 = fresh stream).
[[nodiscard]] std::uint32_t crc32c(const std::byte* data, std::size_t n,
                                   std::uint32_t seed = 0) noexcept;

[[nodiscard]] inline std::uint32_t crc32c(std::span<const std::byte> data,
                                          std::uint32_t seed = 0) noexcept {
    return crc32c(data.data(), data.size(), seed);
}

/// The individual kernels, exposed for cross-validation and benchmarking.
/// crc32c_hardware() must only be called when hardware_available().
[[nodiscard]] std::uint32_t crc32c_software(const std::byte* data,
                                            std::size_t n,
                                            std::uint32_t seed = 0) noexcept;
[[nodiscard]] std::uint32_t crc32c_hardware(const std::byte* data,
                                            std::size_t n,
                                            std::uint32_t seed = 0) noexcept;

// ---------------------------------------------------------------------------
// Raw-state kernels and lane algebra for the fused XOR+CRC traversals
// (xorops). The raw kernels advance the *inverted* running CRC with no
// ~seed/~result bracketing — the state domain in which CRC updates are
// linear over GF(2), so independently computed chains can be stitched
// together after the fact.

/// Advance a raw (inverted) CRC state over [p, p+n) with the portable
/// slice-by-8 kernel. crc32c(data) == ~crc32c_raw_software(~0u, data, n).
[[nodiscard]] std::uint32_t crc32c_raw_software(std::uint32_t raw,
                                                const std::byte* p,
                                                std::size_t n) noexcept;

/// Lane split rule shared by every fused kernel tier: a block of n bytes
/// is checksummed as three independent chains over [0, L), [L, 2L) and
/// [2L, n) with L = crc32c_lane_bytes(n) — three chains hide the 3-cycle
/// latency of the hardware crc32 instruction, tripling sweep throughput.
/// L is 8-byte aligned so the chains advance in whole-word steps; blocks
/// under 24 bytes degenerate to a single chain in lane 2.
[[nodiscard]] constexpr std::size_t crc32c_lane_bytes(std::size_t n) noexcept {
    return (n / 3) & ~static_cast<std::size_t>(7);
}

/// "Advance by `len` bytes" on CRC32C values: multiplication by
/// x^(8*len) mod P, precomputed into nibble lookup tables (zlib's
/// crc32_combine operator, cached for one length instead of rebuilt per
/// call). It stitches the checksums of adjacent pieces without revisiting
/// their bytes:
///   crc32c(a ++ b) == crc32c_shift(b.size()).combine(crc32c(a), crc32c(b))
/// in 8 table lookups, whatever the lengths. The map is linear over
/// GF(2), so it applies equally to raw (inverted) chain states.
class crc32c_shift {
public:
    explicit crc32c_shift(std::size_t len) noexcept;

    /// Advance a CRC state by `len` zero bytes.
    [[nodiscard]] std::uint32_t apply(std::uint32_t x) const noexcept {
        std::uint32_t r = 0;
        for (int k = 0; k < 8; ++k) r ^= tab_[k][(x >> (4 * k)) & 0xfu];
        return r;
    }

    /// CRC32C of a ++ b from crc32c(a) and crc32c(b), where b is `len`
    /// bytes long.
    [[nodiscard]] std::uint32_t combine(std::uint32_t crc_a,
                                        std::uint32_t crc_b) const noexcept {
        return apply(crc_a) ^ crc_b;
    }

private:
    std::uint32_t tab_[8][16];
};

/// Stitches the three raw lane chains of one fixed-size block back into
/// the block's standard CRC32C: each lane CRC is advanced past the lanes
/// that follow it (crc32c_shift), so combining costs ~20 table lookups per
/// block regardless of block size.
class crc32c_lane_combiner {
public:
    explicit crc32c_lane_combiner(std::size_t block_bytes) noexcept;

    [[nodiscard]] std::size_t block() const noexcept { return n_; }

    /// `lanes` holds the raw lane chains (each seeded 0) produced by a
    /// fused kernel over one block() -byte region. Returns the standard
    /// (seed 0, bracketed) CRC32C of the whole block.
    [[nodiscard]] std::uint32_t combine(
        const std::uint32_t lanes[3]) const noexcept {
        return ~(shift_hi_.apply(lanes[0]) ^ shift_lo_.apply(lanes[1]) ^
                 lanes[2] ^ seed_term_);
    }

private:
    std::size_t n_;
    crc32c_shift shift_hi_;    ///< advance by n - L bytes (lane 0)
    crc32c_shift shift_lo_;    ///< advance by n - 2L bytes (lane 1)
    std::uint32_t seed_term_;  ///< the ~0 seed advanced through all n bytes
};

}  // namespace liberation::integrity
