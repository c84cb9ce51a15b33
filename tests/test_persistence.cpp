// Persistence layer: file-backed disks, versioned CRC-protected
// superblocks with A/B shadow slots, mount/unmount, intent-log replay
// across a process kill, and the crash-point matrix — a deliberately
// damaged store must either heal (torn slot falls back to its shadow,
// an unreadable member is kicked to a rebuild target) or degrade loudly
// (refuse to assemble past the two-erasure budget), never silently
// assemble corrupt state.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "liberation/aio/file_backend.hpp"
#include "liberation/raid/intent_log.hpp"
#include "liberation/raid/persist/mount.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"

#include "format_samples.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;
using namespace liberation::raid::persist;

std::string fresh_dir(const std::string& name) {
    const std::string dir =
        ::testing::TempDir() + "liberation-persist-" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

array_config small_config() {
    array_config cfg;
    cfg.k = 4;
    cfg.element_size = 512;
    cfg.stripes = 16;
    cfg.sector_size = 512;
    cfg.io_queue_depth = 1;  // one-stripe window: simplest determinism
    return cfg;
}

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> out(n);
    util::xoshiro256 rng(seed);
    rng.fill(out);
    return out;
}

/// XOR `len` bytes at `offset` with 0xFF — the torn-write simulator.
void flip_bytes(const std::string& path, std::size_t offset,
                std::size_t len) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr) << path;
    std::vector<unsigned char> buf(len);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fread(buf.data(), 1, len, f), len);
    for (unsigned char& b : buf) b ^= 0xFF;
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(buf.data(), 1, len, f), len);
    std::fclose(f);
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

mount_options options_for(const std::string& dir) {
    mount_options mo;
    mo.store.dir = dir;
    mo.io_queue_depth = 1;
    return mo;
}

using format_samples::sample_superblock;

// ---------------------------------------------------------------------
// Superblock codec
// ---------------------------------------------------------------------

/// Every field of two superblocks, intent entries included.
void expect_same_superblock(const superblock& got, const superblock& want) {
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.array_uuid, want.array_uuid);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.clean, want.clean);
    EXPECT_EQ(got.slot, want.slot);
    EXPECT_EQ(got.disk_id, want.disk_id);
    EXPECT_TRUE(got.geometry_matches(want));
    EXPECT_EQ(got.spares_available, want.spares_available);
    EXPECT_EQ(got.next_disk_id, want.next_disk_id);
    EXPECT_EQ(got.intent_capacity, want.intent_capacity);
    EXPECT_EQ(got.slot_states, want.slot_states);
    EXPECT_EQ(got.watermarks, want.watermarks);
    EXPECT_EQ(got.crcs, want.crcs);
    ASSERT_EQ(got.intents.size(), want.intents.size());
    for (std::size_t i = 0; i < want.intents.size(); ++i) {
        EXPECT_EQ(got.intents[i].stripe, want.intents[i].stripe);
        EXPECT_EQ(got.intents[i].columns, want.intents[i].columns);
        EXPECT_EQ(got.intents[i].seq, want.intents[i].seq);
    }
}

TEST(Superblock, EncodeDecodeRoundtrip) {
    const superblock sb = sample_superblock();
    const std::vector<std::byte> blob = encode(sb);
    EXPECT_EQ(blob.size(),
              encoded_size(static_cast<std::uint32_t>(sb.slot_states.size()),
                           sb.intent_capacity, sb.crcs.size()));

    const auto back = decode(blob);
    ASSERT_TRUE(back.has_value());
    expect_same_superblock(*back, sb);
}

TEST(Superblock, EncodedSizeIndependentOfIntentOccupancy) {
    // The on-disk framing must be fixed at format time: a fuller intent
    // log must not change the encoded extent (unused slots are padding).
    superblock sb = sample_superblock();
    sb.intents.clear();
    const std::size_t empty = encode(sb).size();
    sb.intents = {{1, 1, 1}, {2, 2, 2}, {3, 3, 3}};
    EXPECT_EQ(encode(sb).size(), empty);
}

TEST(Superblock, TornSlotFailsItsCrc) {
    const superblock sb = sample_superblock();
    std::vector<std::byte> blob = encode(sb);
    ASSERT_TRUE(decode(blob).has_value());
    for (const std::size_t at :
         {std::size_t{0}, blob.size() / 2, blob.size() - 1}) {
        std::vector<std::byte> torn = blob;
        torn[at] ^= std::byte{0x01};
        EXPECT_FALSE(decode(torn).has_value()) << "flip at " << at;
    }
    // Truncation is torn too.
    std::vector<std::byte> shorter(blob.begin(), blob.end() - 1);
    EXPECT_FALSE(decode(shorter).has_value());
}

TEST(Superblock, FileHeaderRoundtripAndTearDetection) {
    file_header h;
    h.array_uuid = 0x1234;
    h.slot = 3;
    h.slot_bytes = 4096;
    h.data_offset = file_header_size + 2 * 4096;
    std::vector<std::byte> blob = encode_header(h);
    EXPECT_EQ(blob.size(), file_header_size);
    const auto back = decode_header(blob);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->array_uuid, h.array_uuid);
    EXPECT_EQ(back->slot, h.slot);
    EXPECT_EQ(back->slot_bytes, h.slot_bytes);
    EXPECT_EQ(back->data_offset, h.data_offset);
    blob[9] ^= std::byte{0x80};
    EXPECT_FALSE(decode_header(blob).has_value());
}

TEST(Superblock, V1EncodingMatchesGolden) {
    // Format v1 is frozen: encode() must reproduce the recorded bytes and
    // decode() of the recorded bytes must give back the sample.
    const std::pair<const char*, superblock> cases[] = {
        {"superblock_v1_sample", sample_superblock()},
        {"superblock_v1_multipage", format_samples::multipage_superblock()},
    };
    for (const auto& [name, sb] : cases) {
        SCOPED_TRACE(name);
        const std::vector<std::byte> golden = format_samples::load_golden(name);
        ASSERT_FALSE(golden.empty());
        EXPECT_EQ(encode(sb), golden);
        const auto back = decode(golden);
        ASSERT_TRUE(back.has_value());
        expect_same_superblock(*back, sb);
    }
    // The multi-page sample really exercises the page-straddling shapes.
    const std::vector<std::byte> multi =
        format_samples::load_golden("superblock_v1_multipage");
    EXPECT_GT(multi.size(), 2 * 4096u);
    EXPECT_NE(multi.size() % 4096, 0u);
}

// ---------------------------------------------------------------------
// Intent log replay order + full-log behavior (in-memory contract the
// persistence layer serializes)
// ---------------------------------------------------------------------

TEST(IntentLogOrder, ReplayOrderIsOldestMarkFirst) {
    intent_log log;
    EXPECT_TRUE(log.mark(5));
    EXPECT_TRUE(log.mark(3));
    EXPECT_TRUE(log.mark(9));
    EXPECT_EQ(log.dirty_stripes(), (std::vector<std::size_t>{5, 3, 9}));
    // Clearing and re-marking moves a stripe to the back: its hazard
    // re-began, the older in-flight stripes replay first.
    log.clear(3);
    EXPECT_TRUE(log.mark(3));
    EXPECT_EQ(log.dirty_stripes(), (std::vector<std::size_t>{5, 9, 3}));
}

TEST(IntentLogOrder, RemarkWidensMaskButKeepsStamp) {
    intent_log log;
    EXPECT_TRUE(log.mark(4, 0x3));
    EXPECT_TRUE(log.mark(8, 0x1));
    EXPECT_TRUE(log.mark(4, 0xC));  // second update of the same stripe
    EXPECT_EQ(log.columns(4), 0xFu);
    EXPECT_EQ(log.dirty_stripes(), (std::vector<std::size_t>{4, 8}));
    const auto entries = log.entries();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_LT(entries[0].seq, entries[1].seq);
    EXPECT_EQ(entries[0].stripe, 4u);
}

TEST(IntentLogOrder, FullLogRejectsLoudlyAndNeverShedsEntries) {
    intent_log log(2);
    EXPECT_TRUE(log.mark(1));
    EXPECT_TRUE(log.mark(2));
    EXPECT_FALSE(log.mark(3));  // full: refuse, do not evict
    EXPECT_EQ(log.rejected(), 1u);
    EXPECT_EQ(log.size(), 2u);
    EXPECT_FALSE(log.is_dirty(3));
    // Re-marking a present stripe is not a new entry and must succeed.
    EXPECT_TRUE(log.mark(1, 0x1));
    // Draining the oldest entry frees capacity for the refused one.
    log.clear(1);
    EXPECT_TRUE(log.mark(3));
    EXPECT_EQ(log.dirty_stripes(), (std::vector<std::size_t>{2, 3}));
}

TEST(IntentLogOrder, RestoreRebuildsReplayOrderFromStamps) {
    intent_log log;
    // Scrambled insertion order; stamps decide.
    log.restore(12, 0xF, 30);
    log.restore(7, intent_log::all_columns, 10);
    log.restore(2, 0x1, 20);
    EXPECT_EQ(log.dirty_stripes(), (std::vector<std::size_t>{7, 2, 12}));
    EXPECT_EQ(log.columns(7), intent_log::all_columns);
    // New marks stamp after everything restored.
    EXPECT_TRUE(log.mark(1));
    EXPECT_EQ(log.dirty_stripes(), (std::vector<std::size_t>{7, 2, 12, 1}));
}

// ---------------------------------------------------------------------
// File backend
// ---------------------------------------------------------------------

TEST(FileBackend, DataSurvivesReopen) {
    const std::string dir = fresh_dir("filebackend");
    const std::string path = dir + "/fb.img";
    aio::file_backend_config bc;
    bc.data_offset = 4096;
    const std::vector<std::byte> data = pattern_bytes(8192, 77);
    {
        aio::file_backend fb({path}, 8192, bc);
        ASSERT_TRUE(fb.ok(0));
        ASSERT_TRUE(fb.write_data(0, 0, data));
        ASSERT_TRUE(fb.flush_all());
    }
    EXPECT_EQ(std::filesystem::file_size(path), 4096u + 8192u);
    {
        aio::file_backend fb({path}, 8192, bc);
        std::vector<std::byte> back(8192);
        ASSERT_TRUE(fb.read_data(0, 0, back));
        EXPECT_EQ(back, data);
        // Raw access sees the metadata area below data_offset (all zeros
        // here — nothing wrote it).
        std::vector<std::byte> raw(4096);
        ASSERT_TRUE(fb.pread_raw(0, 0, raw));
        for (std::byte b : raw) ASSERT_EQ(b, std::byte{0});
    }
}

TEST(FileBackend, UnopenablePathDegradesNotCrashes) {
    aio::file_backend fb({"/nonexistent-dir-xyz/disk.img"}, 4096, {});
    EXPECT_FALSE(fb.ok(0));
    std::vector<std::byte> buf(64);
    EXPECT_FALSE(fb.read_data(0, 0, buf));
    EXPECT_FALSE(fb.write_data(0, 0, buf));
}

// ---------------------------------------------------------------------
// Mount / unmount roundtrip
// ---------------------------------------------------------------------

TEST(Persistence, CreateWriteUnmountMountRoundtrip) {
    const std::string dir = fresh_dir("roundtrip");
    const array_config cfg = small_config();
    store_config scfg;
    scfg.dir = dir;

    std::vector<std::byte> data;
    {
        auto a = create_array(cfg, scfg, 0xFEED);
        ASSERT_NE(a, nullptr);
        EXPECT_TRUE(a->persistent());
        data = pattern_bytes(a->capacity(), 1);
        ASSERT_TRUE(a->write(0, data));
        EXPECT_TRUE(a->unmount());
        EXPECT_FALSE(a->persistent());  // detached
    }
    mounted_array m = mount_array(options_for(dir));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    ASSERT_NE(m.array, nullptr);
    EXPECT_FALSE(m.report.unclean);  // unmount stamped the store clean
    EXPECT_EQ(m.report.disks_total, cfg.k + 2);
    EXPECT_EQ(m.report.disks_online, cfg.k + 2);
    EXPECT_EQ(m.report.torn_superblock_slots, 0u);
    EXPECT_EQ(m.report.intent_entries, 0u);
    EXPECT_GT(m.report.mount_s, 0.0);

    std::vector<std::byte> back(m.array->capacity());
    ASSERT_TRUE(m.array->read(0, back));
    EXPECT_EQ(back, data);
    // Every stored checksum must also have survived: a scrub finds
    // nothing to repair.
    const scrub_summary s = scrub_array(*m.array);
    EXPECT_EQ(s.repaired_data + s.repaired_parity + s.repaired_metadata, 0u);
    EXPECT_EQ(s.uncorrectable, 0u);
    EXPECT_TRUE(m.array->unmount());
}

TEST(Persistence, MountEmptyDirectoryFailsLoudly) {
    const std::string dir = fresh_dir("empty");
    mounted_array m = mount_array(options_for(dir));
    EXPECT_FALSE(m.report.ok);
    EXPECT_EQ(m.array, nullptr);
    EXPECT_FALSE(m.report.error.empty());
}

TEST(Persistence, UncleanCrashReplaysIntentLog) {
    const std::string dir = fresh_dir("crash-midwrite");
    const array_config cfg = small_config();
    store_config scfg;
    scfg.dir = dir;

    auto a = create_array(cfg, scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    const std::vector<std::byte> data = pattern_bytes(a->capacity(), 2);
    ASSERT_TRUE(a->write(0, data));

    // Pull the plug a couple of disk writes into a stripe update, then
    // "kill the process": destroy the array with no unmount. The intent
    // entry was persisted before the data writes began.
    a->simulate_power_loss_after(2);
    const std::vector<std::byte> update =
        pattern_bytes(3 * cfg.element_size, 3);
    (void)a->write(5 * cfg.element_size, update);
    ASSERT_FALSE(a->powered());
    a.reset();  // crash

    mounted_array m = mount_array(options_for(dir));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_TRUE(m.report.unclean);
    EXPECT_GE(m.report.intent_entries, 1u);
    EXPECT_GE(m.report.intent_replayed, 1u);
    EXPECT_EQ(m.array->journal().size(), 0u);
    EXPECT_GE(m.array->stats().intent_replayed, 1u);
    // The replay counter is exported through the metrics hub.
    EXPECT_NE(m.array->obs().metrics_text().find(
                  "liberation_raid_intent_replayed_total"),
              std::string::npos);

    // Whatever old/new mix the torn write left is now ground truth; the
    // invariant is parity consistency, which the scrubber certifies.
    const scrub_summary s = scrub_array(*m.array);
    EXPECT_EQ(s.uncorrectable, 0u);
    EXPECT_TRUE(m.array->unmount());
}

TEST(Persistence, RestoredJournalPreservesReplayOrder) {
    const std::string dir = fresh_dir("replay-order");
    array_config cfg = small_config();
    cfg.io_queue_depth = 4;  // window writes journal several stripes
    store_config scfg;
    scfg.dir = dir;

    auto a = create_array(cfg, scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->write(0, pattern_bytes(a->capacity(), 4)));

    // Die inside a multi-stripe full-stripe window: several stripes are
    // journaled, few of their writes landed.
    a->simulate_power_loss_after(3);
    const std::size_t stripe_bytes = a->map().stripe_data_size();
    (void)a->write(0, pattern_bytes(4 * stripe_bytes, 5));
    ASSERT_FALSE(a->powered());
    a.reset();  // crash

    mount_options mo = options_for(dir);
    mo.replay_intent = false;  // inspect the restored journal
    mounted_array m = mount_array(mo);
    ASSERT_TRUE(m.report.ok) << m.report.error;
    ASSERT_GE(m.array->journal().size(), 1u);
    // Stamps must have survived serialization: entries() strictly
    // ascending in seq, which is the replay order.
    const auto entries = m.array->journal().entries();
    for (std::size_t i = 1; i < entries.size(); ++i) {
        EXPECT_LT(entries[i - 1].seq, entries[i].seq);
    }
    // Replay drains the journal front-to-back.
    while (m.array->journal().size() > 0) {
        if (m.array->recover_write_hole() == 0) break;
    }
    EXPECT_EQ(m.array->journal().size(), 0u);
    const scrub_summary s = scrub_array(*m.array);
    EXPECT_EQ(s.uncorrectable, 0u);
    EXPECT_TRUE(m.array->unmount());
}

// ---------------------------------------------------------------------
// Crash-point matrix: deliberately damaged stores
// ---------------------------------------------------------------------

class CrashPointMatrix : public ::testing::Test {
protected:
    void make_store(const std::string& dir) {
        dir_ = dir;
        array_config cfg = small_config();
        store_config scfg;
        scfg.dir = dir_;
        auto a = create_array(cfg, scfg, 0xFEED);
        ASSERT_NE(a, nullptr);
        data_ = pattern_bytes(a->capacity(), 6);
        ASSERT_TRUE(a->write(0, data_));
        ASSERT_TRUE(a->unmount());
        const auto probes = probe_dir(dir_);
        ASSERT_EQ(probes.size(), 6u);
        ASSERT_TRUE(probes[0].header_ok);
        slot_bytes_ = probes[0].header.slot_bytes;
        data_offset_ = probes[0].header.data_offset;
    }

    void expect_data_intact(raid6_array& a) {
        std::vector<std::byte> back(a.capacity());
        ASSERT_TRUE(a.read(0, back));
        EXPECT_EQ(back, data_);
    }

    std::string disk(std::uint32_t slot) const {
        return store::disk_path(dir_, slot);
    }

    std::string dir_;
    std::vector<std::byte> data_;
    std::uint64_t slot_bytes_ = 0;
    std::uint64_t data_offset_ = 0;
};

TEST_F(CrashPointMatrix, TornSuperblockSlotFallsBackToShadow) {
    make_store(fresh_dir("torn-one-slot"));
    // Tear slot A of disk 1 (a torn shadow write: CRC fails, the other
    // copy carries the mount).
    flip_bytes(disk(1), file_header_size + 8, 16);
    mounted_array m = mount_array(options_for(dir_));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_EQ(m.report.torn_superblock_slots, 1u);
    EXPECT_EQ(m.report.unreadable, 0u);
    EXPECT_EQ(m.report.disks_online, 6u);
    expect_data_intact(*m.array);
    EXPECT_TRUE(m.array->unmount());
}

TEST_F(CrashPointMatrix, BothSlotsTornKicksDiskToRebuild) {
    make_store(fresh_dir("torn-both-slots"));
    flip_bytes(disk(1), file_header_size + 8, 16);
    flip_bytes(disk(1), file_header_size + slot_bytes_ + 8, 16);
    mounted_array m = mount_array(options_for(dir_));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_EQ(m.report.unreadable, 1u);
    EXPECT_GE(m.report.torn_superblock_slots, 2u);
    EXPECT_EQ(m.array->stats().stale_disks_kicked, 1u);
    EXPECT_TRUE(m.array->rebuild_active());
    m.array->drain_background_rebuild();
    expect_data_intact(*m.array);
    EXPECT_TRUE(m.array->unmount());

    // The healed store mounts clean: the kick was persisted, the rebuild
    // completed, nothing is degraded on the second mount.
    mounted_array again = mount_array(options_for(dir_));
    ASSERT_TRUE(again.report.ok) << again.report.error;
    EXPECT_EQ(again.report.unreadable, 0u);
    EXPECT_EQ(again.report.disks_online, 6u);
    expect_data_intact(*again.array);
    EXPECT_TRUE(again.array->unmount());
}

TEST_F(CrashPointMatrix, CorruptFileHeaderKicksDiskToRebuild) {
    make_store(fresh_dir("bad-header"));
    flip_bytes(disk(2), 16, 8);
    mounted_array m = mount_array(options_for(dir_));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_EQ(m.report.unreadable, 1u);
    m.array->drain_background_rebuild();
    expect_data_intact(*m.array);
    EXPECT_TRUE(m.array->unmount());
}

TEST_F(CrashPointMatrix, MissingDiskFileKicksDiskToRebuild) {
    make_store(fresh_dir("missing-file"));
    std::filesystem::remove(disk(3));
    mounted_array m = mount_array(options_for(dir_));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_EQ(m.report.unreadable, 1u);
    m.array->drain_background_rebuild();
    expect_data_intact(*m.array);
    EXPECT_TRUE(m.array->unmount());
}

TEST_F(CrashPointMatrix, ThreeUntrustedMembersRefuseLoudly) {
    make_store(fresh_dir("three-gone"));
    for (std::uint32_t d : {1u, 2u, 3u}) {
        flip_bytes(disk(d), file_header_size + 8, 16);
        flip_bytes(disk(d), file_header_size + slot_bytes_ + 8, 16);
    }
    mounted_array m = mount_array(options_for(dir_));
    EXPECT_FALSE(m.report.ok);
    EXPECT_EQ(m.array, nullptr);
    EXPECT_NE(m.report.error.find("refusing to assemble"), std::string::npos)
        << m.report.error;
}

TEST_F(CrashPointMatrix, MidStripeTornDataIsDetectedAndHealed) {
    make_store(fresh_dir("torn-data"));
    // Damage data bytes directly in the file — a torn data write the
    // persisted checksums still describe correctly.
    flip_bytes(disk(0), data_offset_ + 3 * 512, 64);
    mounted_array m = mount_array(options_for(dir_));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    // Never served silently: the verified read path or the scrubber must
    // catch the mismatch and reconstruct from the surviving columns.
    const scrub_summary s = scrub_array(*m.array);
    EXPECT_GE(s.repaired_data + s.repaired_parity, 1u);
    EXPECT_EQ(s.uncorrectable, 0u);
    expect_data_intact(*m.array);
    EXPECT_TRUE(m.array->unmount());
}

// ---------------------------------------------------------------------
// Stale and foreign members
// ---------------------------------------------------------------------

TEST(Persistence, StaleDiskIsKickedNotTrusted) {
    const std::string dir = fresh_dir("stale");
    const array_config cfg = small_config();
    store_config scfg;
    scfg.dir = dir;
    std::vector<std::byte> data;
    {
        auto a = create_array(cfg, scfg, 0xFEED);
        ASSERT_NE(a, nullptr);
        data = pattern_bytes(a->capacity(), 8);
        ASSERT_TRUE(a->write(0, data));
        ASSERT_TRUE(a->unmount());
    }
    // Keep an old copy of one member, advance the array's epoch twice
    // (each mount/unmount cycle bumps the membership events), then slide
    // the old copy back in — the classic restored-from-backup disk.
    const std::string victim = store::disk_path(dir, 3);
    const std::vector<std::byte> old_copy = slurp(victim);
    for (int cycle = 0; cycle < 2; ++cycle) {
        mounted_array m = mount_array(options_for(dir));
        ASSERT_TRUE(m.report.ok) << m.report.error;
        ASSERT_TRUE(m.array->unmount());
    }
    {
        std::FILE* f = std::fopen(victim.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(old_copy.data(), 1, old_copy.size(), f),
                  old_copy.size());
        std::fclose(f);
    }
    mounted_array m = mount_array(options_for(dir));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_EQ(m.report.stale_kicked, 1u);
    EXPECT_EQ(m.array->stats().stale_disks_kicked, 1u);
    EXPECT_TRUE(m.array->rebuild_active());
    m.array->drain_background_rebuild();
    std::vector<std::byte> back(m.array->capacity());
    ASSERT_TRUE(m.array->read(0, back));
    EXPECT_EQ(back, data);
    EXPECT_TRUE(m.array->unmount());
}

TEST(Persistence, ForeignDiskIsNeverOverwritten) {
    const std::string dir_a = fresh_dir("foreign-a");
    const std::string dir_b = fresh_dir("foreign-b");
    const array_config cfg = small_config();
    std::vector<std::byte> data;
    {
        store_config scfg;
        scfg.dir = dir_a;
        auto a = create_array(cfg, scfg, 0xAAAA);
        ASSERT_NE(a, nullptr);
        data = pattern_bytes(a->capacity(), 9);
        ASSERT_TRUE(a->write(0, data));
        ASSERT_TRUE(a->unmount());
    }
    {
        store_config scfg;
        scfg.dir = dir_b;
        auto b = create_array(cfg, scfg, 0xBBBB);
        ASSERT_NE(b, nullptr);
        ASSERT_TRUE(b->write(0, pattern_bytes(b->capacity(), 10)));
        ASSERT_TRUE(b->unmount());
    }
    // Array B's disk lands in array A's slot 2 — wrong cable, wrong bay.
    const std::string slot_path = store::disk_path(dir_a, 2);
    std::filesystem::copy_file(
        store::disk_path(dir_b, 2), slot_path,
        std::filesystem::copy_options::overwrite_existing);
    const std::vector<std::byte> foreign_before = slurp(slot_path);

    mounted_array m = mount_array(options_for(dir_a));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_EQ(m.report.foreign, 1u);
    EXPECT_EQ(m.report.disks_online, 5u);
    EXPECT_FALSE(m.array->disk(2).online());
    // Degraded but fully readable, and writes still land.
    std::vector<std::byte> back(m.array->capacity());
    ASSERT_TRUE(m.array->read(0, back));
    EXPECT_EQ(back, data);
    ASSERT_TRUE(
        m.array->write(0, pattern_bytes(2 * cfg.element_size, 11)));
    (void)m.array->unmount();  // degraded unmount; foreign slot excluded
    // The foreign file was not touched by mount, I/O, or unmount.
    EXPECT_EQ(slurp(slot_path), foreign_before);
}

// ---------------------------------------------------------------------
// Superblock store: dirty-page persists against the whole-image oracle
// ---------------------------------------------------------------------

/// Bytes [offset, offset + n) of a file.
std::vector<std::byte> read_range(const std::string& path, std::size_t offset,
                                  std::size_t n) {
    std::vector<std::byte> out(n);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return {};
    EXPECT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    EXPECT_EQ(std::fread(out.data(), 1, n, f), n);
    std::fclose(f);
    return out;
}

/// One A/B copy of a slot's superblock, read back from its file.
std::vector<std::byte> read_copy(const std::string& dir, const store& st,
                                 std::uint32_t slot, std::uint64_t copy) {
    const superblock& img = st.image(slot);
    const std::size_t n = encoded_size(
        static_cast<std::uint32_t>(img.slot_states.size()),
        img.intent_capacity, img.crcs.size());
    return read_range(store::disk_path(dir, slot),
                      file_header_size + copy * st.slot_bytes(), n);
}

/// A slot's files hold exactly what a whole-slot rewrite would have left:
/// the copy the latest persist targeted equals encode(image) byte for
/// byte, and the other copy is a complete encoding of an older (or, right
/// after initialization, the same) image.
void expect_copies_match(const std::string& dir, const store& st,
                         std::uint32_t slot) {
    SCOPED_TRACE("slot " + std::to_string(slot));
    const superblock& img = st.image(slot);
    const std::uint64_t newest = img.seq % 2;
    for (const std::uint64_t copy : {0u, 1u}) {
        const std::vector<std::byte> raw = read_copy(dir, st, slot, copy);
        const auto sb = decode(raw);
        ASSERT_TRUE(sb.has_value()) << "copy " << copy << " does not decode";
        if (copy == newest) {
            EXPECT_EQ(raw, encode(img)) << "copy " << copy;
        } else {
            EXPECT_LE(sb->seq, img.seq);
            EXPECT_EQ(raw, encode(*sb)) << "copy " << copy;
        }
    }
}

/// The same for every replicated slot of a live array, whose persists
/// run on the array's own schedule: a write stages its checksum words in
/// the image and the next metadata epoch carries them. So the newest copy
/// is encode(image) field for field except for checksum words staged
/// since the slot's last persist. A slot not persisted since the previous
/// check keeps the words it had on disk then; a slot persisted since
/// holds, for each word it lacks, the value the image had at the previous
/// check (the epoch carried everything staged before it).
struct epoch_oracle {
    struct slot_seen {
        std::uint64_t seq = 0;
        std::vector<std::uint32_t> image_words;
        std::vector<std::uint32_t> file_words;
    };
    std::vector<slot_seen> seen;
    std::size_t staged_words = 0;  ///< words seen staged, not yet carried
};

void expect_all_copies_match(const std::string& dir, raid6_array& a,
                             epoch_oracle& o) {
    const store* st = a.persistence();
    ASSERT_NE(st, nullptr);
    o.seen.resize(st->slot_count());
    for (std::uint32_t s = 0; s < st->slot_count(); ++s) {
        if (!st->meta_slot(s) || !st->slot_ok(s)) continue;
        SCOPED_TRACE("slot " + std::to_string(s));
        const superblock& img = st->image(s);
        epoch_oracle::slot_seen& seen = o.seen[s];
        const std::uint64_t newest = img.seq % 2;
        for (const std::uint64_t copy : {0u, 1u}) {
            const std::vector<std::byte> raw = read_copy(dir, *st, s, copy);
            const auto sb = decode(raw);
            ASSERT_TRUE(sb.has_value()) << "copy " << copy << " does not decode";
            if (copy != newest) {
                EXPECT_LE(sb->seq, img.seq);
                EXPECT_EQ(raw, encode(*sb)) << "copy " << copy;
                continue;
            }
            ASSERT_EQ(sb->crcs.size(), img.crcs.size());
            superblock want = img;
            want.crcs = sb->crcs;
            EXPECT_EQ(raw, encode(want)) << "copy " << copy;
            const bool comparable = seen.image_words.size() == img.crcs.size();
            for (std::size_t w = 0; w < img.crcs.size(); ++w) {
                if (sb->crcs[w] == img.crcs[w]) continue;
                ++o.staged_words;
                if (!comparable) continue;
                EXPECT_EQ(sb->crcs[w], seen.seq == img.seq
                                           ? seen.file_words[w]
                                           : seen.image_words[w])
                    << "word " << w;
            }
            seen.file_words = sb->crcs;
        }
        seen.seq = img.seq;
        seen.image_words = img.crcs;
    }
}

/// An array whose superblocks span three pages (checksum table > 4 KiB).
array_config multipage_config() {
    array_config cfg = small_config();
    cfg.stripes = 512;
    cfg.hot_spares = 1;
    cfg.rebuild_batch_stripes = 32;
    return cfg;
}

TEST(SuperblockStore, DirtyPagePersistsMatchWholeImageOracle) {
    const std::string dir = fresh_dir("sb-oracle");
    const array_config cfg = multipage_config();
    store_config scfg;
    scfg.dir = dir;
    auto a = create_array(cfg, scfg, 0x5B5B);
    ASSERT_NE(a, nullptr);
    store* st = a->persistence();
    ASSERT_NE(st, nullptr);
    ASSERT_GT(encode(st->image(0)).size(), 2 * 4096u);
    epoch_oracle oracle;
    expect_all_copies_match(dir, *a, oracle);

    const std::size_t stripe_bytes = a->capacity() / cfg.stripes;
    const std::size_t elem = cfg.element_size;
    util::xoshiro256 rng(20);
    std::uint64_t salt = 100;
    const auto random_ops = [&](int count) {
        for (int i = 0; i < count; ++i) {
            switch (rng.next() % 4) {
            case 0: {  // full-stripe write
                const std::size_t stripe = rng.next() % cfg.stripes;
                ASSERT_TRUE(a->write(stripe * stripe_bytes,
                                     pattern_bytes(stripe_bytes, ++salt)));
                break;
            }
            case 1:
            case 2: {  // small (element) write
                const std::size_t at =
                    rng.next() % (a->capacity() / elem) * elem;
                ASSERT_TRUE(a->write(at, pattern_bytes(elem, ++salt)));
                break;
            }
            default:  // a bare persist: nothing changed but the seq
                ASSERT_TRUE(st->persist(
                    static_cast<std::uint32_t>(rng.next() % st->slot_count())));
                break;
            }
            expect_all_copies_match(dir, *a, oracle);
        }
    };

    random_ops(60);
    // Fail-stop: the spare is promoted and the background rebuild
    // advances the new member's watermark batch by batch.
    a->fail_disk(1);
    expect_all_copies_match(dir, *a, oracle);
    int batches = 0;
    while (a->rebuild_active()) {
        (void)a->service_background_rebuild(cfg.rebuild_batch_stripes);
        expect_all_copies_match(dir, *a, oracle);
        if (++batches % 4 == 0) random_ops(3);
    }
    EXPECT_GE(batches, 8);
    // Re-initialize a live slot's file: both copies rewritten whole.
    ASSERT_TRUE(st->reinit_slot(2));
    expect_all_copies_match(dir, *a, oracle);
    random_ops(20);

    std::vector<std::byte> data(a->capacity());
    ASSERT_TRUE(a->read(0, data));
    // The words still staged reach the files with unmount's epochs.
    std::vector<std::vector<std::uint32_t>> words;
    for (std::uint32_t s = 0; s < cfg.k + 2; ++s) {
        words.push_back(st->image(s).crcs);
    }
    ASSERT_TRUE(a->unmount());
    for (std::uint32_t s = 0; s < cfg.k + 2; ++s) {
        const auto probe = probe_dir(dir)[s];
        ASSERT_TRUE(probe.sb.has_value()) << s;
        EXPECT_EQ(probe.bad_slots, 0) << s;
        EXPECT_TRUE(probe.sb->clean) << s;
        EXPECT_EQ(probe.sb->crcs, words[s]) << s;
    }

    mounted_array m = mount_array(options_for(dir));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_FALSE(m.report.unclean);
    a = std::move(m.array);
    st = a->persistence();
    expect_all_copies_match(dir, *a, oracle);
    std::vector<std::byte> back(a->capacity());
    ASSERT_TRUE(a->read(0, back));
    EXPECT_EQ(back, data);
    random_ops(30);
    EXPECT_TRUE(a->unmount());
    // Writes did leave words staged between epochs for the oracle to see.
    EXPECT_GT(oracle.staged_words, 0u);
}

/// The descriptors this process holds open on `path`.
std::vector<int> open_descriptors(const std::string& path) {
    struct stat want {};
    if (::stat(path.c_str(), &want) != 0) return {};
    std::vector<int> fds;
    for (int fd = 0; fd < 1024; ++fd) {
        struct stat got {};
        if (::fstat(fd, &got) == 0 && got.st_dev == want.st_dev &&
            got.st_ino == want.st_ino) {
            fds.push_back(fd);
        }
    }
    return fds;
}

TEST(SuperblockStore, FailedPersistRewritesItsCopyInFull) {
    const std::string dir = fresh_dir("sb-failed-write");
    const array_config cfg = multipage_config();
    store_config scfg;
    scfg.dir = dir;
    auto a = create_array(cfg, scfg, 0x5C5C);
    ASSERT_NE(a, nullptr);
    store* st = a->persistence();
    ASSERT_NE(st, nullptr);
    ASSERT_TRUE(a->write(0, pattern_bytes(a->capacity(), 30)));
    constexpr std::uint32_t slot = 3;
    const std::string path = store::disk_path(dir, slot);
    ASSERT_TRUE(st->persist(slot));
    ASSERT_TRUE(st->persist(slot));
    expect_copies_match(dir, *st, slot);

    // The slot's file stops accepting writes: its descriptor is swapped
    // for a read-only one. The copy the next persist targets is left torn
    // in a page that persist would not otherwise rewrite (checksum table).
    const std::vector<int> fds = open_descriptors(path);
    ASSERT_EQ(fds.size(), 1u);
    const int saved = ::dup(fds[0]);
    const int read_only = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(saved, 0);
    ASSERT_GE(read_only, 0);
    ASSERT_EQ(::dup2(read_only, fds[0]), fds[0]);
    ::close(read_only);
    const std::uint64_t target = (st->image(slot).seq + 1) % 2;
    flip_bytes(path, file_header_size + target * st->slot_bytes() + 4096 + 64,
               16);
    EXPECT_FALSE(st->persist(slot));
    EXPECT_FALSE(decode(read_copy(dir, *st, slot, target)).has_value());

    // Writable again: the other copy takes the next persist, then the
    // failed copy is rewritten whole — torn page included.
    ASSERT_EQ(::dup2(saved, fds[0]), fds[0]);
    ::close(saved);
    ASSERT_TRUE(st->persist(slot));
    const std::uint64_t before = st->meta_bytes_written();
    ASSERT_TRUE(st->persist(slot));
    EXPECT_EQ(st->image(slot).seq % 2, target);
    EXPECT_EQ(st->meta_bytes_written() - before,
              encode(st->image(slot)).size());
    expect_copies_match(dir, *st, slot);
    // And the next persist of that copy is incremental again.
    ASSERT_TRUE(st->persist(slot));
    const std::uint64_t incremental = st->meta_bytes_written();
    ASSERT_TRUE(st->persist(slot));
    EXPECT_LT(st->meta_bytes_written() - incremental,
              encode(st->image(slot)).size());
    expect_copies_match(dir, *st, slot);
    EXPECT_TRUE(a->unmount());
}

// ---------------------------------------------------------------------
// Rebuild watermarks
// ---------------------------------------------------------------------

TEST(Persistence, InterruptedRebuildResumesFromWatermark) {
    const std::string dir = fresh_dir("watermark");
    array_config cfg = small_config();
    cfg.stripes = 64;  // long enough to interrupt
    cfg.hot_spares = 1;
    cfg.rebuild_batch_stripes = 2;
    store_config scfg;
    scfg.dir = dir;

    auto a = create_array(cfg, scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    const std::vector<std::byte> data = pattern_bytes(a->capacity(), 12);
    ASSERT_TRUE(a->write(0, data));
    a->fail_disk(1);  // spare promotes, background rebuild starts
    // Service a few batches, then die mid-rebuild.
    std::vector<std::byte> probe(cfg.element_size);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(a->read(static_cast<std::size_t>(i) * probe.size(),
                            probe));
    }
    ASSERT_TRUE(a->rebuild_active());
    a.reset();  // crash

    mounted_array m = mount_array(options_for(dir));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_TRUE(m.report.unclean);
    EXPECT_EQ(m.report.rebuilds_resumed, 1u);
    EXPECT_TRUE(m.array->rebuild_active());
    m.array->drain_background_rebuild();
    EXPECT_GE(m.array->stats().rebuilds_completed, 1u);
    std::vector<std::byte> back(m.array->capacity());
    ASSERT_TRUE(m.array->read(0, back));
    EXPECT_EQ(back, data);
    const scrub_summary s = scrub_array(*m.array);
    EXPECT_EQ(s.uncorrectable, 0u);
    EXPECT_TRUE(m.array->unmount());
}

// ---------------------------------------------------------------------
// Metadata epochs: one persist per slot per write
// ---------------------------------------------------------------------

/// Superblock persists so far: the sum of every replicated slot's seq.
std::uint64_t persists_so_far(const raid6_array& a) {
    const store* st = const_cast<raid6_array&>(a).persistence();
    std::uint64_t sum = 0;
    for (std::uint32_t s = 0; s < st->slot_count(); ++s) {
        if (st->meta_slot(s)) sum += st->image(s).seq;
    }
    return sum;
}

/// The stripes named by slot `slot`'s newest superblock on disk.
std::vector<std::uint64_t> persisted_stripes(const std::string& dir,
                                             std::uint32_t slot) {
    const auto probes = probe_dir(dir);
    EXPECT_GT(probes.size(), slot);
    std::vector<std::uint64_t> out;
    if (probes.size() <= slot || !probes[slot].sb) return out;
    for (const superblock::intent_entry& e : probes[slot].sb->intents) {
        out.push_back(e.stripe);
    }
    std::sort(out.begin(), out.end());
    return out;
}

TEST(MetadataEpoch, WriteCostsOnePersistPerSlot) {
    const std::string dir = fresh_dir("epoch-count");
    array_config cfg = small_config();
    cfg.io_queue_depth = 4;
    store_config scfg;
    scfg.dir = dir;
    auto a = create_array(cfg, scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    const std::uint64_t n = a->disk_count();
    ASSERT_TRUE(a->write(0, pattern_bytes(a->capacity(), 30)));
    const std::size_t elem = cfg.element_size;
    const std::size_t sds = a->map().stripe_data_size();
    // Steady state: earlier writes have clears and staged words pending.
    for (std::uint64_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(a->write(i * sds + elem, pattern_bytes(elem, 31 + i)));
    }

    // A healthy small write: one epoch, whatever columns it patches.
    std::uint64_t before = persists_so_far(*a);
    ASSERT_TRUE(a->write(5 * sds + 3 * elem, pattern_bytes(elem, 40)));
    EXPECT_EQ(persists_so_far(*a) - before, n);
    EXPECT_EQ(a->stats().small_writes, 4u);

    // A window of four full stripes: one group-commit epoch, not four.
    const std::uint64_t full_before = a->stats().full_stripe_writes;
    before = persists_so_far(*a);
    ASSERT_TRUE(a->write(8 * sds, pattern_bytes(4 * sds, 41)));
    EXPECT_EQ(a->stats().full_stripe_writes - full_before, 4u);
    EXPECT_EQ(persists_so_far(*a) - before, n);
    EXPECT_TRUE(a->unmount());
}

TEST(MetadataEpoch, ClearDropsOneEpochAfterItsWords) {
    const std::string dir = fresh_dir("epoch-lag");
    const array_config cfg = small_config();
    store_config scfg;
    scfg.dir = dir;
    auto a = create_array(cfg, scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->write(0, pattern_bytes(a->capacity(), 50)));
    const std::size_t elem = cfg.element_size;
    const std::size_t sds = a->map().stripe_data_size();
    const std::size_t strip = a->map().strip_size();
    const std::size_t block = a->integrity_block();
    // Stripes 2, 6 and 9, column 1, row 0 each.
    const auto write_to = [&](std::size_t stripe, std::uint64_t seed) {
        ASSERT_TRUE(
            a->write(stripe * sds + strip, pattern_bytes(elem, seed)));
    };
    // Word `w` of the column-1 element of `stripe`: live vs on disk.
    const auto words_durable = [&](std::size_t stripe) {
        const strip_location loc = a->map().locate(stripe, 1);
        const auto probe = probe_dir(dir)[loc.disk];
        EXPECT_TRUE(probe.sb.has_value());
        const auto live = a->integrity(loc.disk).checksums();
        for (std::size_t w = loc.offset / block;
             w < (loc.offset + elem) / block; ++w) {
            if (probe.sb->crcs[w] != live[w]) return false;
        }
        return true;
    };
    const auto clear_prefill = [&] {
        // Two epochs retire whatever the prefill left pending.
        write_to(12, 51);
        write_to(13, 52);
    };
    clear_prefill();

    write_to(2, 53);
    // Its mark epoch is durable; its own words are only staged.
    EXPECT_FALSE(words_durable(2));
    for (std::uint32_t s = 0; s < a->disk_count(); ++s) {
        EXPECT_EQ(persisted_stripes(dir, s),
                  (std::vector<std::uint64_t>{2, 13}))
            << "slot " << s;
    }
    write_to(6, 54);
    // The next epoch carries stripe 2's words and still names it.
    EXPECT_TRUE(words_durable(2));
    EXPECT_FALSE(words_durable(6));
    for (std::uint32_t s = 0; s < a->disk_count(); ++s) {
        EXPECT_EQ(persisted_stripes(dir, s),
                  (std::vector<std::uint64_t>{2, 6}))
            << "slot " << s;
    }
    write_to(9, 55);
    // Only the epoch after that drops it.
    for (std::uint32_t s = 0; s < a->disk_count(); ++s) {
        EXPECT_EQ(persisted_stripes(dir, s),
                  (std::vector<std::uint64_t>{6, 9}))
            << "slot " << s;
    }
    EXPECT_TRUE(a->unmount());
}

TEST(MetadataEpoch, FailedPersistHoldsClearsBack) {
    const std::string dir = fresh_dir("epoch-held");
    const array_config cfg = small_config();
    store_config scfg;
    scfg.dir = dir;
    auto a = create_array(cfg, scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->write(0, pattern_bytes(a->capacity(), 90)));
    const std::size_t elem = cfg.element_size;
    const std::size_t sds = a->map().stripe_data_size();
    const std::size_t strip = a->map().strip_size();
    const auto write_to = [&](std::size_t stripe, std::uint64_t seed) {
        ASSERT_TRUE(
            a->write(stripe * sds + strip, pattern_bytes(elem, seed)));
    };
    const auto expect_tables = [&](std::vector<std::uint64_t> want) {
        for (std::uint32_t s = 0; s < a->disk_count(); ++s) {
            EXPECT_EQ(persisted_stripes(dir, s), want) << "slot " << s;
        }
    };
    // Two epochs retire whatever the prefill left pending.
    write_to(12, 91);
    write_to(13, 92);
    write_to(2, 93);
    expect_tables({2, 13});

    // Slot 3's file turns read-only: the epoch of the next write fails
    // there, so stripe 2's words may not be durable on it.
    constexpr std::uint32_t broken = 3;
    const std::string path = store::disk_path(dir, broken);
    const std::vector<int> fds = open_descriptors(path);
    ASSERT_EQ(fds.size(), 1u);
    const int saved = ::dup(fds[0]);
    const int read_only = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(saved, 0);
    ASSERT_GE(read_only, 0);
    ASSERT_EQ(::dup2(read_only, fds[0]), fds[0]);
    ::close(read_only);
    write_to(6, 94);
    ASSERT_EQ(::dup2(saved, fds[0]), fds[0]);
    ::close(saved);
    for (std::uint32_t s = 0; s < a->disk_count(); ++s) {
        if (s == broken) continue;
        EXPECT_EQ(persisted_stripes(dir, s),
                  (std::vector<std::uint64_t>{2, 6}))
            << "slot " << s;
    }

    // The next epoch lands on every slot and still names stripe 2: it
    // is the first to carry its words everywhere.
    write_to(9, 95);
    expect_tables({2, 6, 9});
    // Only the epoch after that drops the held clears.
    write_to(10, 96);
    expect_tables({9, 10});
    EXPECT_TRUE(a->unmount());
}

TEST(MetadataEpoch, RemarkedStripeKeepsBothMasks) {
    const std::string dir = fresh_dir("epoch-remark");
    const array_config cfg = small_config();
    store_config scfg;
    scfg.dir = dir;
    auto a = create_array(cfg, scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->write(0, pattern_bytes(a->capacity(), 60)));
    const std::size_t elem = cfg.element_size;
    const std::size_t sds = a->map().stripe_data_size();
    const std::size_t strip = a->map().strip_size();
    // Two small writes to stripe 3: column 0, then column 2.
    ASSERT_TRUE(a->write(3 * sds, pattern_bytes(elem, 61)));
    ASSERT_TRUE(a->write(3 * sds + 2 * strip, pattern_bytes(elem, 62)));
    const std::uint64_t pq = (std::uint64_t{1} << a->code().p_column()) |
                             (std::uint64_t{1} << a->code().q_column());
    const auto probe = probe_dir(dir)[0];
    ASSERT_TRUE(probe.sb.has_value());
    bool found = false;
    for (const superblock::intent_entry& e : probe.sb->intents) {
        if (e.stripe != 3) continue;
        EXPECT_FALSE(found) << "stripe 3 listed twice";
        found = true;
        // The first write's words are not durable yet: its column stays
        // a replay target next to the second write's.
        EXPECT_EQ(e.columns, pq | 0b101u);
    }
    EXPECT_TRUE(found);
    EXPECT_TRUE(a->unmount());
}

TEST(MetadataEpoch, UnmountLeavesEmptyTables) {
    const std::string dir = fresh_dir("epoch-unmount");
    array_config cfg = small_config();
    cfg.io_queue_depth = 4;
    store_config scfg;
    scfg.dir = dir;
    auto a = create_array(cfg, scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    const std::vector<std::byte> data = pattern_bytes(a->capacity(), 70);
    ASSERT_TRUE(a->write(0, data));
    const std::size_t elem = cfg.element_size;
    std::vector<std::byte> want = data;
    for (std::uint64_t i = 0; i < 5; ++i) {
        const std::size_t at = (3 + 7 * i) * elem;
        const std::vector<std::byte> upd = pattern_bytes(elem, 71 + i);
        ASSERT_TRUE(a->write(at, upd));
        std::copy(upd.begin(), upd.end(),
                  want.begin() + static_cast<std::ptrdiff_t>(at));
    }
    ASSERT_TRUE(a->unmount());
    const auto probes = probe_dir(dir);
    ASSERT_EQ(probes.size(), cfg.k + 2);
    for (std::uint32_t s = 0; s < probes.size(); ++s) {
        ASSERT_TRUE(probes[s].sb.has_value()) << s;
        EXPECT_TRUE(probes[s].sb->intents.empty()) << "slot " << s;
        EXPECT_TRUE(probes[s].sb->clean) << "slot " << s;
    }
    mounted_array m = mount_array(options_for(dir));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_FALSE(m.report.unclean);
    EXPECT_EQ(m.report.intent_entries, 0u);
    EXPECT_EQ(m.report.intent_replayed, 0u);
    std::vector<std::byte> back(m.array->capacity());
    ASSERT_TRUE(m.array->read(0, back));
    EXPECT_EQ(back, want);
    const scrub_summary sc = scrub_array(*m.array);
    EXPECT_EQ(sc.checksum_mismatch_columns, 0u);
    EXPECT_TRUE(m.array->unmount());
}

TEST(MetadataEpoch, BoundedLogAdmitsEveryWindowWrite) {
    const std::string dir = fresh_dir("epoch-bounded");
    array_config cfg = small_config();
    cfg.intent_log_entries = 4;
    cfg.io_queue_depth = 8;
    store_config scfg;
    scfg.dir = dir;
    auto a = create_array(cfg, scfg, 0xFEED);
    ASSERT_NE(a, nullptr);
    const std::size_t sds = a->map().stripe_data_size();
    const std::size_t elem = cfg.element_size;
    std::vector<std::byte> want(a->capacity());
    const auto write = [&](std::size_t at, std::size_t len,
                           std::uint64_t seed) {
        const std::vector<std::byte> b = pattern_bytes(len, seed);
        ASSERT_TRUE(a->write(at, b));
        std::copy(b.begin(), b.end(),
                  want.begin() + static_cast<std::ptrdiff_t>(at));
        // No persisted table may outgrow the serialized capacity.
        for (const disk_probe& p : probe_dir(dir)) {
            ASSERT_TRUE(p.sb.has_value());
            EXPECT_LE(p.sb->intents.size(), 4u);
        }
    };
    // Whole-array windows (capped at the log's four free entries), with
    // small writes in between leaving lagged clears behind.
    write(0, a->capacity(), 80);
    write(elem, elem, 81);
    write(5 * sds + elem, elem, 82);
    write(2 * sds, 8 * sds, 83);
    write(9 * sds + 2 * elem, elem, 84);
    write(4 * sds, 6 * sds, 85);
    EXPECT_EQ(a->stats().writes_rejected_log_full, 0u);
    EXPECT_EQ(a->journal().rejected(), 0u);
    ASSERT_TRUE(a->unmount());

    mounted_array m = mount_array(options_for(dir));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    std::vector<std::byte> back(m.array->capacity());
    ASSERT_TRUE(m.array->read(0, back));
    EXPECT_EQ(back, want);
    EXPECT_TRUE(m.array->unmount());
}

}  // namespace
