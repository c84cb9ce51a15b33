// Crash-prefix enumeration: every state a process kill can leave.
//
// A killed process loses nothing it already handed to the kernel, and
// nothing after the kill reaches the files, so the crash states of a run
// are exactly the in-order prefixes of its pwrite sequence. The test
// records that sequence (file_backend's write observer) for scripted runs
// of a small persistent array (healthy writes; a fail-stop, spare
// promotion and background rebuild), then materialises every
// whole-pwrite prefix over the post-create images and mounts each one:
//
//   * the mount succeeds, or is refused with a reason;
//   * every column the mount trusts (readable, not masked by a rebuild
//     cursor) matches its stored checksum words on every stripe the
//     mount left unjournaled;
//   * every write acknowledged before the cut reads back exactly;
//   * each element of the write in flight at the cut is all-old or
//     all-new (the intent log re-syncs a torn stripe from its data);
//   * replay re-syncs every journaled stripe once every member is whole
//     (at once when all are healthy, else after the resumed rebuild);
//   * a scrub of the whole array finds nothing uncorrectable and no
//     checksum mismatch.
//
// Reorderings inside an fsync epoch (machine crashes) are a larger state
// space and are not enumerated here.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "liberation/aio/file_backend.hpp"
#include "liberation/raid/persist/mount.hpp"
#include "liberation/raid/persist/store.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;
using namespace liberation::raid::persist;

struct pwrite_record {
    std::uint32_t file;
    std::size_t offset;
    std::vector<std::byte> bytes;
};

/// One host write of the script: its extent and the pwrite trace length
/// when write() returned (it is acknowledged in every longer prefix).
struct host_write {
    std::size_t addr;
    std::vector<std::byte> bytes;
    std::size_t acked = 0;
};

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> out(n);
    util::xoshiro256 rng(seed);
    rng.fill(out);
    return out;
}

std::vector<std::byte> slurp(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return {};
    std::fseek(f, 0, SEEK_END);
    std::vector<std::byte> out(static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
    std::fclose(f);
    return out;
}

void spill(const std::string& path, const std::vector<std::byte>& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

/// The recorded run: post-create file images, the pwrite trace and the
/// host writes it carried.
struct recorded_run {
    array_config cfg;
    std::size_t capacity = 0;
    std::vector<std::vector<std::byte>> images;
    std::vector<pwrite_record> trace;
    std::vector<host_write> writes;
};

std::string fresh_dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "liberation-crash-" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/// k=4, p=5, 512-byte elements, 8 stripes.
array_config small_config() {
    array_config cfg;
    cfg.k = 4;
    cfg.p = 5;
    cfg.element_size = 512;
    cfg.sector_size = 512;
    cfg.stripes = 8;
    cfg.io_queue_depth = 8;
    return cfg;
}

/// Issues one host write and records its extent and acknowledgement.
using host_writer =
    std::function<void(std::size_t addr, std::vector<std::byte> bytes)>;

/// Create an array from run.cfg, trace every pwrite of `script`, unmount.
void record_run(const std::string& dir, recorded_run& run,
                const std::function<void(raid6_array&, const host_writer&)>&
                    script) {
    store_config scfg;
    scfg.dir = dir;
    auto a = create_array(run.cfg, scfg, 0xC0FFEE);
    ASSERT_NE(a, nullptr);
    run.capacity = a->capacity();
    for (std::uint32_t s = 0; s < a->disk_count(); ++s) {
        run.images.push_back(slurp(store::disk_path(dir, s)));
    }
    a->persistence()->backend().set_write_observer(
        [&run](std::uint32_t file, std::size_t offset,
               std::span<const std::byte> bytes) {
            run.trace.push_back(
                {file, offset, std::vector<std::byte>(bytes.begin(),
                                                      bytes.end())});
        });
    const host_writer write = [&](std::size_t addr,
                                  std::vector<std::byte> bytes) {
        run.writes.push_back({addr, std::move(bytes)});
        host_write& w = run.writes.back();
        ASSERT_TRUE(a->write(w.addr, w.bytes));
        w.acked = run.trace.size();
    };
    script(*a, write);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(a->unmount());
}

/// Image of the host address space after the first `count` writes.
std::vector<std::byte> host_image(const recorded_run& run, std::size_t count) {
    std::vector<std::byte> img(run.capacity);
    for (std::size_t i = 0; i < count; ++i) {
        const host_write& w = run.writes[i];
        std::copy(w.bytes.begin(), w.bytes.end(),
                  img.begin() + static_cast<std::ptrdiff_t>(w.addr));
    }
    return img;
}

/// Materialise every whole-pwrite prefix of the run in `dir`, mount it
/// and check the invariants in the header comment.
void check_every_prefix(const recorded_run& run, const std::string& dir) {
    ASSERT_GT(run.trace.size(), run.writes.size());
    const std::size_t elem = run.cfg.element_size;
    std::vector<std::vector<std::byte>> files = run.images;
    std::size_t violations = 0;
    std::size_t refused = 0;
    for (std::size_t cut = 0; cut <= run.trace.size(); ++cut) {
        if (cut > 0) {
            const pwrite_record& r = run.trace[cut - 1];
            std::vector<std::byte>& f = files[r.file];
            if (f.size() < r.offset + r.bytes.size()) {
                f.resize(r.offset + r.bytes.size());
            }
            std::copy(r.bytes.begin(), r.bytes.end(),
                      f.begin() + static_cast<std::ptrdiff_t>(r.offset));
        }
        for (std::uint32_t s = 0; s < files.size(); ++s) {
            spill(store::disk_path(dir, s), files[s]);
        }
        mount_options mo;
        mo.store.dir = dir;
        mo.io_queue_depth = run.cfg.io_queue_depth;
        mo.rebuild_batch_stripes = run.cfg.rebuild_batch_stripes;
        mounted_array m = mount_array(mo);
        if (!m.report.ok) {
            ++refused;
            EXPECT_FALSE(m.report.error.empty()) << "cut " << cut;
            continue;
        }

        // With every member healthy, replay re-syncs every stripe the
        // mount found journaled. A member still rebuilding leaves its
        // unrebuilt stripes journaled until the rebuild has passed them.
        const bool rebuilding = m.array->rebuilding_disk_count() != 0;
        if (!rebuilding && m.array->journal().size() != 0) {
            ++violations;
            ADD_FAILURE() << "cut " << cut << ": "
                          << m.array->journal().size()
                          << " stripes still journaled after replay";
        }

        // Every column the mount trusts (readable, not masked by a
        // rebuild cursor) of every stripe it left unjournaled matches its
        // stored checksum words.
        for (std::size_t st = 0; st < run.cfg.stripes; ++st) {
            if (m.array->journal().is_dirty(st)) continue;
            for (std::uint32_t col = 0; col < m.array->disk_count(); ++col) {
                const strip_location loc = m.array->map().locate(st, col);
                std::vector<std::byte> strip(m.array->map().strip_size());
                if (m.array->disk_read(loc.disk, loc.offset, strip) !=
                    io_status::ok) {
                    continue;
                }
                if (!m.array->integrity(loc.disk).verify(loc.offset, strip)) {
                    ++violations;
                    ADD_FAILURE() << "cut " << cut << ": stripe " << st
                                  << " column " << col << " (disk "
                                  << loc.disk
                                  << ") fails its checksum, unjournaled";
                }
            }
        }

        // Writes acknowledged before the cut, and the one in flight.
        std::size_t acked = 0;
        while (acked < run.writes.size() && run.writes[acked].acked <= cut) {
            ++acked;
        }
        const std::vector<std::byte> before = host_image(run, acked);
        const std::vector<std::byte> after =
            host_image(run, std::min(acked + 1, run.writes.size()));
        std::vector<std::byte> got(run.capacity);
        ASSERT_TRUE(m.array->read(0, got)) << "cut " << cut;
        for (std::size_t e = 0; e < run.capacity; e += elem) {
            const auto at = static_cast<std::ptrdiff_t>(e);
            const auto end = at + static_cast<std::ptrdiff_t>(elem);
            const bool is_old =
                std::equal(got.begin() + at, got.begin() + end,
                           before.begin() + at);
            const bool is_new = std::equal(
                got.begin() + at, got.begin() + end, after.begin() + at);
            if (!is_old && !is_new) {
                ++violations;
                ADD_FAILURE() << "cut " << cut << " of " << run.trace.size()
                              << ": element at " << e
                              << " is neither old nor new (write "
                              << acked << " in flight)";
            }
        }

        // A member still rebuilding is scrubbed once it is whole again:
        // until then its masked columns are reconstructed and re-verified
        // against words that predate the failure.
        if (rebuilding) {
            // Finish the resumed rebuild and replay what it unblocked.
            m.array->drain_background_rebuild();
            (void)m.array->recover_write_hole();
            if (m.array->journal().size() != 0) {
                ++violations;
                ADD_FAILURE() << "cut " << cut << ": "
                              << m.array->journal().size()
                              << " stripes still journaled after the rebuild";
            }
            std::vector<std::byte> again(run.capacity);
            ASSERT_TRUE(m.array->read(0, again)) << "cut " << cut;
            if (again != got) {
                ++violations;
                ADD_FAILURE() << "cut " << cut << ": the rebuild changed data";
            }
        }
        const scrub_summary sc = scrub_array(*m.array);
        if (sc.uncorrectable != 0 || sc.checksum_mismatch_columns != 0) {
            ++violations;
            ADD_FAILURE() << "cut " << cut << ": scrub uncorrectable="
                          << sc.uncorrectable << " checksum-mismatch-columns="
                          << sc.checksum_mismatch_columns;
        }
    }
    EXPECT_EQ(violations, 0u);
    // Every prefix keeps at least five readable members: nothing here is
    // beyond RAID-6, so no mount may be refused.
    EXPECT_EQ(refused, 0u);
}

/// create -> full write -> three small writes (two to one stripe, one to
/// another) -> one window full-stripe write -> unmount.
TEST(CrashPrefix, EveryPwritePrefixMountsConsistent) {
    recorded_run run;
    run.cfg = small_config();
    record_run(fresh_dir("record"), run,
               [&run](raid6_array& a, const host_writer& write) {
                   const std::size_t elem = run.cfg.element_size;
                   const std::size_t sds = a.map().stripe_data_size();
                   const std::size_t strip = a.map().strip_size();
                   write(0, pattern_bytes(run.capacity, 1));
                   // Stripe 1, column 0: straddles rows 1 and 2.
                   write(sds + elem + elem / 2, pattern_bytes(elem, 2));
                   // Stripe 1 again, column 2, row 3.
                   write(sds + 2 * strip + 3 * elem,
                         pattern_bytes(elem / 4, 3));
                   // Stripe 5, column 1, row 0.
                   write(5 * sds + strip, pattern_bytes(elem, 4));
                   // A two-stripe window over stripes 2-3.
                   write(2 * sds, pattern_bytes(2 * sds, 5));
               });
    if (HasFatalFailure()) return;
    check_every_prefix(run, fresh_dir("prefix"));
}

/// create (one hot spare) -> full write -> a member fail-stops -> small
/// writes that skip its parity column -> failover: the spare is promoted
/// into the member's slot and rebuilds two stripes per batch -> a small
/// write to the rebuilt member -> unmount. The slot keeps the old parity
/// and its checksum words until a batch rewrites both, so a prefix that
/// persisted an advanced watermark on one slot but not the new words on
/// the member's own slot surfaces as checksum mismatches on unjournaled
/// stripes.
TEST(CrashPrefix, FailAndRebuildPrefixesMountConsistent) {
    recorded_run run;
    run.cfg = small_config();
    run.cfg.hot_spares = 1;
    run.cfg.rebuild_batch_stripes = 2;
    record_run(fresh_dir("rebuild-record"), run, [&run](raid6_array& a,
                                                        const host_writer&
                                                            write) {
        const std::size_t elem = run.cfg.element_size;
        const std::size_t sds = a.map().stripe_data_size();
        const std::size_t strip = a.map().strip_size();
        const std::uint32_t k = run.cfg.k;
        // Not slot 0: a lower slot must be able to persist first.
        constexpr std::uint32_t victim = 2;
        const auto data_column_on = [&](std::size_t s, bool on_victim) {
            std::uint32_t col = 0;
            while (col < k &&
                   (a.map().locate(s, col).disk == victim) != on_victim) {
                ++col;
            }
            return col;
        };
        write(0, pattern_bytes(run.capacity, 11));
        // The member dies; the failover waits for the operator.
        a.disk(victim).fail();
        std::uint64_t seed = 12;
        std::size_t skipped = 0;
        for (std::size_t s = 2; s < run.cfg.stripes; ++s) {
            if (a.map().column_of_disk(s, victim) < k) continue;
            write(s * sds + data_column_on(s, false) * strip + elem,
                  pattern_bytes(elem, seed++));
            ++skipped;
        }
        ASSERT_GT(skipped, 0u);
        a.fail_disk(victim);
        ASSERT_TRUE(a.rebuild_active());
        while (a.rebuild_active()) {
            (void)a.service_background_rebuild(run.cfg.rebuild_batch_stripes);
        }
        // The rebuilt member takes a write of its own.
        const std::uint32_t col = data_column_on(6, true);
        if (col < k) write(6 * sds + col * strip, pattern_bytes(elem, seed));
    });
    if (HasFatalFailure()) return;
    check_every_prefix(run, fresh_dir("rebuild-prefix"));
}

}  // namespace
