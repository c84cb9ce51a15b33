#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "liberation/raid/array.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

array_config cfg() {
    array_config c;
    c.k = 6;  // p = 7, 8 disks
    c.element_size = 512;
    c.stripes = 6;
    c.sector_size = 512;
    return c;
}

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    util::xoshiro256 rng(seed);
    rng.fill(v);
    return v;
}

TEST(DegradedFastPath, SmallReadUsesElementRecovery) {
    raid6_array a(cfg());
    const auto img = pattern(a.capacity(), 1);
    ASSERT_TRUE(a.write(0, img));
    a.fail_disk(3);

    // One-element read hitting the failed disk.
    std::vector<std::byte> out(100);
    const std::size_t addr = 512 * 7;  // somewhere in the first stripe
    ASSERT_TRUE(a.read(addr, out));
    EXPECT_TRUE(std::equal(out.begin(), out.end(),
                           img.begin() + static_cast<long>(addr)));
    // Reads that needed reconstruction went through the element path, not
    // a full-stripe decode.
    EXPECT_EQ(a.stats().degraded_stripe_reads, 0u);
}

TEST(DegradedFastPath, LargeReadStillUsesStripeDecode) {
    raid6_array a(cfg());
    const auto img = pattern(a.capacity(), 2);
    ASSERT_TRUE(a.write(0, img));
    a.fail_disk(2);

    std::vector<std::byte> out(a.map().stripe_data_size());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_TRUE(std::equal(out.begin(), out.end(), img.begin()));
    EXPECT_GT(a.stats().degraded_stripe_reads, 0u);
}

TEST(DegradedFastPath, TwoFailuresFallBackToFullDecode) {
    raid6_array a(cfg());
    const auto img = pattern(a.capacity(), 3);
    ASSERT_TRUE(a.write(0, img));
    a.fail_disk(1);
    a.fail_disk(4);

    // Small read: the element path cannot work (two unknowns per row for
    // some rows), so it must transparently fall back and still be right.
    std::vector<std::byte> out(64);
    for (std::size_t addr : {0ul, 5000ul, 9999ul}) {
        ASSERT_TRUE(a.read(addr, out));
        EXPECT_TRUE(std::equal(out.begin(), out.end(),
                               img.begin() + static_cast<long>(addr)))
            << addr;
    }
}

TEST(DegradedFastPath, EveryElementOfFailedColumnReadable) {
    raid6_array a(cfg());
    const auto img = pattern(a.capacity(), 4);
    ASSERT_TRUE(a.write(0, img));
    a.fail_disk(5);
    const std::size_t elem = a.map().element_size();
    std::vector<std::byte> out(elem);
    for (std::size_t e = 0; e < a.capacity() / elem; ++e) {
        ASSERT_TRUE(a.read(e * elem, out)) << e;
        ASSERT_TRUE(std::equal(out.begin(), out.end(),
                               img.begin() + static_cast<long>(e * elem)))
            << e;
    }
}

// ---- degraded small writes ------------------------------------------

constexpr std::size_t kStripe = 1;  // the stripe every write lands in

/// Host address of byte `in_elem` of data element (row, col) of kStripe.
std::size_t elem_addr(const raid6_array& a, std::uint32_t col,
                      std::uint32_t row, std::size_t in_elem = 0) {
    return kStripe * a.map().stripe_data_size() + col * a.map().strip_size() +
           row * a.map().element_size() + in_elem;
}

std::uint32_t disk_of(const raid6_array& a, std::uint32_t col) {
    return a.map().locate(kStripe, col).disk;
}

bool is_failed(const std::vector<std::uint32_t>& failed, std::uint32_t d) {
    return std::find(failed.begin(), failed.end(), d) != failed.end();
}

/// Parity elements a small write to data element (row, col) patches when
/// the disks in `failed` are fail-stopped: P's row element, Q's
/// anti-diagonal element, and Q's extra element when (row, col) holds an
/// anti-diagonal's extra bit, each only if its member is present.
std::uint64_t present_patches(const raid6_array& a,
                              const std::vector<std::uint32_t>& failed,
                              std::uint32_t col, std::uint32_t row) {
    const bool p_up = !is_failed(failed, disk_of(a, a.code().p_column()));
    const bool q_up = !is_failed(failed, disk_of(a, a.code().q_column()));
    const bool extra = a.code().geom().is_extra_position(row, col);
    return (p_up ? 1u : 0u) + (q_up ? (extra ? 2u : 1u) : 0u);
}

/// Write `in` at `addr` into both the array and the shadow image, then
/// read the whole array back against the shadow. Returns the counters as
/// they stood between the write and the read-back.
array_stats write_and_check(raid6_array& a, std::vector<std::byte>& shadow,
                            std::size_t addr,
                            const std::vector<std::byte>& in) {
    EXPECT_TRUE(a.write(addr, in)) << addr;
    const array_stats after_write = a.stats();
    std::copy(in.begin(), in.end(),
              shadow.begin() + static_cast<long>(addr));
    std::vector<std::byte> out(a.capacity());
    EXPECT_TRUE(a.read(0, out)) << addr;
    EXPECT_TRUE(out == shadow) << "read-back differs after write at " << addr;
    return after_write;
}

/// Replace and rebuild `failed`, then demand a clean scrub and a
/// byte-equal image.
void rebuild_and_verify(raid6_array& a,
                        const std::vector<std::uint32_t>& failed,
                        const std::vector<std::byte>& shadow) {
    for (const std::uint32_t d : failed) a.replace_disk(d);
    ASSERT_TRUE(rebuild_disks(a, failed).success);
    const scrub_summary sum = scrub_array(a);
    EXPECT_EQ(sum.clean, sum.stripes_scanned);
    EXPECT_EQ(sum.uncorrectable, 0u);
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_TRUE(out == shadow);
}

TEST(DegradedFastPath, SmallWriteEveryFailStopPattern) {
    const std::uint32_t n = 8;
    std::vector<std::vector<std::uint32_t>> patterns;
    for (std::uint32_t d0 = 0; d0 < n; ++d0) {
        patterns.push_back({d0});
        for (std::uint32_t d1 = d0 + 1; d1 < n; ++d1) {
            patterns.push_back({d0, d1});
        }
    }
    ASSERT_EQ(patterns.size(), 36u);
    std::uint64_t seed = 100;
    for (const std::vector<std::uint32_t>& failed : patterns) {
        SCOPED_TRACE(testing::Message()
                     << "failed disks " << failed.front() << ","
                     << failed.back());
        raid6_array a(cfg());
        ASSERT_EQ(a.disk_count(), n);
        std::vector<std::byte> shadow = pattern(a.capacity(), ++seed);
        ASSERT_TRUE(a.write(0, shadow));
        for (const std::uint32_t d : failed) a.fail_disk(d);

        const std::size_t elem = a.map().element_size();
        // Every data element of the stripe (extra-bit positions
        // included), each an in-element partial write, then one write
        // straddling the boundary between rows 2 and 3 of column 2.
        struct small_write {
            std::size_t addr, len;
            std::vector<std::pair<std::uint32_t, std::uint32_t>> touched;
        };
        std::vector<small_write> writes;
        for (std::uint32_t col = 0; col < a.map().k(); ++col) {
            for (std::uint32_t row = 0; row < a.map().rows(); ++row) {
                writes.push_back(
                    {elem_addr(a, col, row, 7), elem - 20, {{col, row}}});
            }
        }
        writes.push_back(
            {elem_addr(a, 2, 2, elem - 100), 200, {{2, 2}, {2, 3}}});

        for (const small_write& w : writes) {
            SCOPED_TRACE(testing::Message() << "write at " << w.addr);
            const array_stats before = a.stats();
            const array_stats after =
                write_and_check(a, shadow, w.addr, pattern(w.len, ++seed));
            std::uint64_t patches = 0;
            bool data_readable = true;
            for (const auto& [col, row] : w.touched) {
                data_readable =
                    data_readable && !is_failed(failed, disk_of(a, col));
                patches += present_patches(a, failed, col, row);
            }
            if (!data_readable) continue;  // erased data: reconstruct-write
            // Readable data element: the write stays on the update-optimal
            // path — no stripe is loaded, and exactly the parity elements
            // on present members are patched.
            EXPECT_EQ(after.degraded_stripe_reads,
                      before.degraded_stripe_reads);
            EXPECT_EQ(after.parity_elements_updated -
                          before.parity_elements_updated,
                      patches);
        }
        rebuild_and_verify(a, failed, shadow);
    }
}

/// One write to data element (row 0, column 0) of kStripe whose parity
/// failure is not a fail-stop: the write must run the reconstruct-write
/// (one stripe load, no parity patch), not skip the parity.
void expect_reconstruct_write(raid6_array& a, std::vector<std::byte>& shadow) {
    const array_stats before = a.stats();
    const array_stats after = write_and_check(
        a, shadow, elem_addr(a, 0, 0, 3), pattern(100, 77));
    EXPECT_EQ(after.degraded_stripe_reads, before.degraded_stripe_reads + 1);
    EXPECT_EQ(after.parity_elements_updated, before.parity_elements_updated);
    EXPECT_EQ(after.small_writes, before.small_writes + 1);
}

TEST(DegradedFastPath, SmallWriteFallsBackWhenParityIsOnARebuildingSpare) {
    array_config c = cfg();
    c.hot_spares = 1;
    c.rebuild_batch_stripes = 1;  // the write's batch rebuilds stripe 0 only
    raid6_array a(c);
    std::vector<std::byte> shadow = pattern(a.capacity(), 11);
    ASSERT_TRUE(a.write(0, shadow));
    // The spare takes P's slot at once; kStripe stays masked (rebuilding)
    // on it, an online member whose parity must not be left stale.
    a.fail_disk(disk_of(a, a.code().p_column()));
    ASSERT_EQ(a.failed_disk_count(), 0u);
    expect_reconstruct_write(a, shadow);
    a.drain_background_rebuild();
    const scrub_summary sum = scrub_array(a);
    EXPECT_EQ(sum.clean, sum.stripes_scanned);
}

TEST(DegradedFastPath, SmallWriteFallsBackOnChecksumCorruptParity) {
    raid6_array a(cfg());
    std::vector<std::byte> shadow = pattern(a.capacity(), 12);
    ASSERT_TRUE(a.write(0, shadow));
    const std::uint32_t qdisk = disk_of(a, a.code().q_column());
    a.fail_disk(qdisk);
    // P's row-0 element rots silently: it reads fine but fails its CRC.
    const strip_location ploc = a.map().locate(kStripe, a.code().p_column());
    a.disk(ploc.disk).poke(ploc.offset, pattern(16, 13));
    expect_reconstruct_write(a, shadow);
    rebuild_and_verify(a, {qdisk}, shadow);
}

TEST(DegradedFastPath, SmallWriteFallsBackOnExhaustedTransientParityRead) {
    raid6_array a(cfg());
    std::vector<std::byte> shadow = pattern(a.capacity(), 14);
    ASSERT_TRUE(a.write(0, shadow));
    const std::uint32_t qdisk = disk_of(a, a.code().q_column());
    const std::uint32_t pdisk = disk_of(a, a.code().p_column());
    a.fail_disk(qdisk);
    // Every read of P's disk fails transiently through the retry budget.
    a.disk(pdisk).set_transient_fault_rates(1.0, 0.0, 15);
    const array_stats before = a.stats();
    ASSERT_TRUE(a.write(elem_addr(a, 0, 0, 3), pattern(100, 16)));
    const array_stats after = a.stats();
    EXPECT_GT(after.retries_exhausted, before.retries_exhausted);
    EXPECT_EQ(after.degraded_stripe_reads, before.degraded_stripe_reads + 1);
    EXPECT_EQ(after.parity_elements_updated, before.parity_elements_updated);
    const auto written = pattern(100, 16);
    std::copy(written.begin(), written.end(),
              shadow.begin() + static_cast<long>(elem_addr(a, 0, 0, 3)));
    a.disk(pdisk).clear_transient_faults();
    rebuild_and_verify(a, {qdisk}, shadow);
}

TEST(DegradedFastPath, SmallWritePowerLossWithParityAbsentRecovers) {
    raid6_array a(cfg());
    std::vector<std::byte> shadow = pattern(a.capacity(), 17);
    ASSERT_TRUE(a.write(0, shadow));
    const std::uint32_t pdisk = disk_of(a, a.code().p_column());
    a.fail_disk(pdisk);

    // Column 0 holds no extra bit: the write patches Q once, then writes
    // the data element. Power dies after the Q patch lands.
    const std::size_t addr = elem_addr(a, 0, 0, 3);
    const std::vector<std::byte> fresh = pattern(100, 18);
    a.simulate_power_loss_after(1);
    (void)a.write(addr, fresh);
    ASSERT_FALSE(a.powered());
    a.reboot();
    ASSERT_TRUE(a.journal().is_dirty(kStripe));

    // Q may hold the patch without its data: the resync re-encodes the
    // present parity from data, with P's member simply not written.
    EXPECT_EQ(a.recover_write_hole(), 1u);
    EXPECT_EQ(a.journal().size(), 0u);
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    // The interrupted write was never acknowledged: its range reads as
    // either the old or the new bytes, and nothing else moved.
    const auto at = static_cast<long>(addr);
    const bool landed =
        std::equal(fresh.begin(), fresh.end(), out.begin() + at);
    if (landed) std::copy(fresh.begin(), fresh.end(), shadow.begin() + at);
    EXPECT_TRUE(out == shadow) << "landed=" << landed;

    a.replace_disk(pdisk);
    const std::uint32_t replaced[] = {pdisk};
    ASSERT_TRUE(rebuild_disks(a, replaced).success);
    const scrub_summary sum = scrub_array(a);
    EXPECT_EQ(sum.clean, sum.stripes_scanned);
    ASSERT_TRUE(a.read(0, out));
    EXPECT_TRUE(out == shadow);
}

TEST(Resilver, HealsParityStripMediaErrors) {
    raid6_array a(cfg());
    ASSERT_TRUE(a.write(0, pattern(a.capacity(), 5)));

    // Latent errors on both a data strip and a parity strip of stripe 1.
    const auto ploc = a.map().locate(1, a.code().p_column());
    const auto dloc = a.map().locate(1, 2);
    a.disk(ploc.disk).inject_latent_error(ploc.offset, 64);
    a.disk(dloc.disk).inject_latent_error(dloc.offset, 64);
    EXPECT_EQ(a.disk(ploc.disk).latent_error_count() +
                  a.disk(dloc.disk).latent_error_count(),
              2u);

    const std::size_t healed = a.resilver();
    EXPECT_EQ(healed, 2u);
    EXPECT_EQ(a.disk(ploc.disk).latent_error_count(), 0u);
    EXPECT_EQ(a.disk(dloc.disk).latent_error_count(), 0u);
    // Second pass finds nothing.
    EXPECT_EQ(a.resilver(), 0u);
}

}  // namespace
