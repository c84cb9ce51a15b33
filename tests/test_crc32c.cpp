#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "liberation/integrity/crc32c.hpp"
#include "liberation/util/rng.hpp"

namespace {

using namespace liberation;
using namespace liberation::integrity;

std::uint32_t crc_str(const char* s) {
    return crc32c(reinterpret_cast<const std::byte*>(s), std::strlen(s));
}

TEST(Crc32c, CheckValue) {
    // The universal CRC32C check value — any conforming implementation
    // must reproduce it.
    EXPECT_EQ(crc_str("123456789"), 0xE3069283u);
}

TEST(Crc32c, KnownVectors) {
    // RFC 3720 (iSCSI) appendix test patterns.
    const std::vector<std::byte> zeros(32, std::byte{0});
    EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
    const std::vector<std::byte> ones(32, std::byte{0xff});
    EXPECT_EQ(crc32c(ones.data(), ones.size()), 0x62A8AB43u);
    EXPECT_EQ(crc32c(zeros.data(), 0), 0u);
}

TEST(Crc32c, SeedChainsStreams) {
    util::xoshiro256 rng(1);
    std::vector<std::byte> buf(1000);
    rng.fill(buf);
    const std::uint32_t whole = crc32c(buf.data(), buf.size());
    for (const std::size_t split : {0u, 1u, 7u, 64u, 999u, 1000u}) {
        const std::uint32_t first = crc32c(buf.data(), split);
        EXPECT_EQ(crc32c(buf.data() + split, buf.size() - split, first),
                  whole);
    }
}

TEST(Crc32c, SoftwareMatchesHardware) {
    if (!hardware_available()) GTEST_SKIP() << "no CRC32C instruction";
    util::xoshiro256 rng(2);
    std::vector<std::byte> buf(4096 + 9);
    rng.fill(buf);
    // Every tail length crosses the 8-byte kernel boundary differently.
    for (std::size_t n = 0; n <= 70; ++n) {
        EXPECT_EQ(crc32c_software(buf.data(), n),
                  crc32c_hardware(buf.data(), n))
            << "n=" << n;
    }
    const auto seed = static_cast<std::uint32_t>(rng.next());
    EXPECT_EQ(crc32c_software(buf.data(), buf.size(), seed),
              crc32c_hardware(buf.data(), buf.size(), seed));
    // Misaligned starts exercise the byte head/tail of the hardware loop.
    for (std::size_t skew = 1; skew < 8; ++skew) {
        EXPECT_EQ(crc32c_software(buf.data() + skew, 100),
                  crc32c_hardware(buf.data() + skew, 100));
    }
}

TEST(Crc32c, ShiftCombineStitchesConcatenation) {
    // crc32c(a ++ b) from crc32c(a) and crc32c(b) alone, for tail lengths
    // around the 8-byte kernel step and the 4 KiB page the superblock
    // store stitches at; checked on both implementations.
    util::xoshiro256 rng(3);
    std::vector<std::byte> buf(5000 + 3 * 4096 + 5);
    rng.fill(buf);
    const std::size_t head_lengths[] = {0, 5, 4096, 5000};
    const std::size_t tail_lengths[] = {0, 1, 7, 4095, 4096, 4097,
                                        3 * 4096 + 5};
    const crc32c_impl original = active_impl();
    for (const crc32c_impl impl :
         {crc32c_impl::software, crc32c_impl::hardware}) {
        if (impl == crc32c_impl::hardware && !hardware_available()) continue;
        force_impl(impl);
        for (const std::size_t b : tail_lengths) {
            const crc32c_shift shift(b);
            for (const std::size_t a : head_lengths) {
                const std::uint32_t want = crc32c(buf.data(), a + b);
                const std::uint32_t got = shift.combine(
                    crc32c(buf.data(), a), crc32c(buf.data() + a, b));
                EXPECT_EQ(got, want) << "impl=" << static_cast<int>(impl)
                                     << " a=" << a << " b=" << b;
            }
        }
    }
    force_impl(original);
    // Folding page CRCs left to right rebuilds the whole-buffer CRC.
    const crc32c_shift page(4096);
    const std::size_t n = 3 * 4096 + 5;
    const crc32c_shift tail(n % 4096);
    std::uint32_t folded = 0;
    for (std::size_t at = 0; at < n; at += 4096) {
        const std::size_t len = std::min<std::size_t>(4096, n - at);
        folded = (len == 4096 ? page : tail)
                     .combine(folded, crc32c(buf.data() + at, len));
    }
    EXPECT_EQ(folded, crc32c(buf.data(), n));
}

TEST(Crc32c, ForceImplPinsDispatch) {
    const crc32c_impl original = active_impl();
    force_impl(crc32c_impl::software);
    EXPECT_EQ(active_impl(), crc32c_impl::software);
    EXPECT_EQ(crc_str("123456789"), 0xE3069283u);
    if (hardware_available()) {
        force_impl(crc32c_impl::hardware);
        EXPECT_EQ(active_impl(), crc32c_impl::hardware);
        EXPECT_EQ(crc_str("123456789"), 0xE3069283u);
    } else {
        // Forcing hardware without support silently stays on software.
        force_impl(crc32c_impl::hardware);
        EXPECT_EQ(active_impl(), crc32c_impl::software);
    }
    force_impl(original);
}

}  // namespace
