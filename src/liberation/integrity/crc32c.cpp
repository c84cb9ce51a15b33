#include "liberation/integrity/crc32c.hpp"

#include <atomic>
#include <cstring>

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1u << 7)
#endif
#endif

namespace liberation::integrity {

namespace {

// ---------------------------------------------------------------------------
// Software path: slice-by-8.
//
// t[0] is the classic reflected-polynomial byte table; t[s] extends it so
// that eight input bytes fold into the CRC with eight independent table
// lookups per iteration instead of eight dependent ones. The recurrence
// t[s][i] = (t[s-1][i] >> 8) ^ t[0][t[s-1][i] & 0xff] expresses "advance
// the partial remainder by one more zero byte".

constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

struct crc_tables {
    std::uint32_t t[8][256];

    crc_tables() noexcept {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1u) ? (c >> 1) ^ kPolyReflected : c >> 1;
            t[0][i] = c;
        }
        for (std::uint32_t s = 1; s < 8; ++s)
            for (std::uint32_t i = 0; i < 256; ++i)
                t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffu];
    }
};

const crc_tables tables;

// Raw kernels work on the *inverted* running CRC (callers handle the
// standard ~seed / ~result bracketing), so chaining composes exactly.
std::uint32_t software_raw(std::uint32_t crc, const std::byte* p,
                           std::size_t n) noexcept {
    const auto& t = tables.t;
    // Slice-by-8 loads two 32-bit words per iteration; the little-endian
    // byte order of the loads matches the reflected polynomial. (All
    // supported targets are little-endian; the byte-at-a-time tail below
    // is the portable fallback and handles any residue.)
    while (n >= 8) {
        std::uint32_t lo, hi;
        std::memcpy(&lo, p, 4);
        std::memcpy(&hi, p + 4, 4);
        lo ^= crc;
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
              t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^
              t[0][hi >> 24];
        p += 8;
        n -= 8;
    }
    while (n-- > 0) {
        crc = (crc >> 8) ^
              t[0][(crc ^ std::to_integer<std::uint32_t>(*p++)) & 0xffu];
    }
    return crc;
}

// ---------------------------------------------------------------------------
// Hardware path.

#if defined(__x86_64__) || defined(__i386__)

__attribute__((target("sse4.2"))) std::uint32_t hardware_raw(
    std::uint32_t crc, const std::byte* p, std::size_t n) noexcept {
#if defined(__x86_64__)
    std::uint64_t c = crc;
    while (n >= 8) {
        std::uint64_t w;
        std::memcpy(&w, p, 8);
        c = __builtin_ia32_crc32di(c, w);
        p += 8;
        n -= 8;
    }
    crc = static_cast<std::uint32_t>(c);
#endif
    while (n-- > 0) {
        crc = __builtin_ia32_crc32qi(crc,
                                     std::to_integer<unsigned char>(*p++));
    }
    return crc;
}

bool detect_hardware() noexcept { return __builtin_cpu_supports("sse4.2"); }

#elif defined(__aarch64__)

__attribute__((target("+crc"))) std::uint32_t hardware_raw(
    std::uint32_t crc, const std::byte* p, std::size_t n) noexcept {
    while (n >= 8) {
        std::uint64_t w;
        std::memcpy(&w, p, 8);
        crc = __builtin_aarch64_crc32cx(crc, w);
        p += 8;
        n -= 8;
    }
    while (n-- > 0) {
        crc = __builtin_aarch64_crc32cb(crc,
                                        std::to_integer<unsigned char>(*p++));
    }
    return crc;
}

bool detect_hardware() noexcept {
#if defined(__linux__)
    return (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
#else
    return false;
#endif
}

#else

std::uint32_t hardware_raw(std::uint32_t crc, const std::byte* p,
                           std::size_t n) noexcept {
    return software_raw(crc, p, n);
}

bool detect_hardware() noexcept { return false; }

#endif

// Dispatch state. CPU detection must not run during static initialization
// (other translation units' constructors may checksum), so the atomic is a
// lazy magic static.
std::atomic<crc32c_impl>& impl_slot() noexcept {
    static std::atomic<crc32c_impl> slot{
        detect_hardware() ? crc32c_impl::hardware : crc32c_impl::software};
    return slot;
}

}  // namespace

crc32c_impl active_impl() noexcept {
    return impl_slot().load(std::memory_order_relaxed);
}

bool hardware_available() noexcept {
    static const bool available = detect_hardware();
    return available;
}

void force_impl(crc32c_impl impl) noexcept {
    if (impl == crc32c_impl::hardware && !hardware_available())
        impl = crc32c_impl::software;
    impl_slot().store(impl, std::memory_order_relaxed);
}

std::uint32_t crc32c_software(const std::byte* data, std::size_t n,
                              std::uint32_t seed) noexcept {
    return ~software_raw(~seed, data, n);
}

std::uint32_t crc32c_hardware(const std::byte* data, std::size_t n,
                              std::uint32_t seed) noexcept {
    return ~hardware_raw(~seed, data, n);
}

std::uint32_t crc32c(const std::byte* data, std::size_t n,
                     std::uint32_t seed) noexcept {
    return active_impl() == crc32c_impl::hardware
               ? crc32c_hardware(data, n, seed)
               : crc32c_software(data, n, seed);
}

std::uint32_t crc32c_raw_software(std::uint32_t raw, const std::byte* p,
                                  std::size_t n) noexcept {
    return software_raw(raw, p, n);
}

// ---------------------------------------------------------------------------
// Lane combiner: GF(2) matrix algebra over the 32-bit raw CRC state.
//
// Advancing a raw state by one zero byte is a linear map; its matrix powers
// give "advance by len zero bytes" for any len (zlib's crc32_combine).
// Matrices are represented column-wise: m[i] is the image of basis bit i.

namespace {

struct gf2_matrix {
    std::uint32_t m[32];
};

std::uint32_t gf2_times(const gf2_matrix& a, std::uint32_t x) noexcept {
    std::uint32_t r = 0;
    for (int i = 0; x != 0; ++i, x >>= 1)
        if (x & 1u) r ^= a.m[i];
    return r;
}

/// a ∘ b: apply b, then a.
gf2_matrix gf2_compose(const gf2_matrix& a, const gf2_matrix& b) noexcept {
    gf2_matrix r;
    for (int i = 0; i < 32; ++i) r.m[i] = gf2_times(a, b.m[i]);
    return r;
}

/// Advance-by-`len`-zero-bytes as a matrix power of the one-byte step.
gf2_matrix gf2_shift_bytes(std::size_t len) noexcept {
    gf2_matrix one;  // advance raw state by a single zero byte
    for (int i = 0; i < 32; ++i) {
        const std::uint32_t s = 1u << i;
        one.m[i] = (s >> 8) ^ tables.t[0][s & 0xffu];
    }
    gf2_matrix acc;  // identity
    for (int i = 0; i < 32; ++i) acc.m[i] = 1u << i;
    while (len != 0) {
        if (len & 1u) acc = gf2_compose(one, acc);
        one = gf2_compose(one, one);
        len >>= 1;
    }
    return acc;
}

}  // namespace

crc32c_shift::crc32c_shift(std::size_t len) noexcept {
    const gf2_matrix m = gf2_shift_bytes(len);
    for (int k = 0; k < 8; ++k)
        for (std::uint32_t d = 0; d < 16; ++d)
            tab_[k][d] = gf2_times(m, d << (4 * k));
}

crc32c_lane_combiner::crc32c_lane_combiner(std::size_t block_bytes) noexcept
    : n_(block_bytes),
      shift_hi_(n_ - crc32c_lane_bytes(n_)),
      shift_lo_(n_ - 2 * crc32c_lane_bytes(n_)),
      seed_term_(gf2_times(gf2_shift_bytes(n_), ~0u)) {}

}  // namespace liberation::integrity
