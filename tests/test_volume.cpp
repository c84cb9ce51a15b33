// Volume layer: chunk-granular round-robin placement across raid6_array
// shards, boundary-straddling I/O, per-shard fault isolation (degraded
// serving, rebuild-one-shard-while-writing-others), the stats roll-up
// and labeled per-shard metric series, the CRC-protected volume manifest
// (torn-slot fallback, both-torn refusal), the mount-time shard census
// (missing / foreign shard directories reported, not crashed), and the
// multi-shard chaos campaign's determinism.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "liberation/util/rng.hpp"
#include "liberation/volume/chaos.hpp"
#include "liberation/volume/manifest.hpp"
#include "liberation/volume/mount.hpp"
#include "liberation/volume/volume.hpp"

namespace {

using namespace liberation::volume;
namespace util = liberation::util;

std::string fresh_dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "liberation-vol-" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

volume_config small_volume(std::uint32_t shards,
                           std::size_t chunk_stripes = 1) {
    volume_config cfg;
    cfg.shards = shards;
    cfg.chunk_stripes = chunk_stripes;
    cfg.shard.k = 4;
    cfg.shard.element_size = 512;
    cfg.shard.stripes = 8;
    cfg.shard.sector_size = 512;
    cfg.shard.io_queue_depth = 1;
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

// ---------------------------------------------------------------------
// Address mapping
// ---------------------------------------------------------------------

TEST(VolumeMapping, ChunkRoundRobinAcrossGeometries) {
    for (const std::uint32_t shards : {1u, 2u, 3u, 4u, 8u}) {
        for (const std::size_t chunk_stripes : {std::size_t{1},
                                                std::size_t{2}}) {
            volume vol(small_volume(shards, chunk_stripes));
            const std::size_t cb = vol.chunk_bytes();
            ASSERT_EQ(cb, chunk_stripes *
                              vol.shard(0).map().stripe_data_size());
            const std::size_t chunks = vol.capacity() / cb;
            for (std::size_t c = 0; c < chunks; ++c) {
                const extent_location lo = vol.locate(c * cb);
                EXPECT_EQ(lo.shard, c % shards);
                EXPECT_EQ(lo.addr, (c / shards) * cb);
                // Interior offsets stay inside the same chunk.
                const extent_location mid = vol.locate(c * cb + cb / 2);
                EXPECT_EQ(mid.shard, lo.shard);
                EXPECT_EQ(mid.addr, lo.addr + cb / 2);
            }
        }
    }
}

TEST(VolumeMapping, CoversEveryShardByteExactlyOnce) {
    for (const std::uint32_t shards : {2u, 3u, 4u}) {
        volume vol(small_volume(shards));
        const std::size_t cb = vol.chunk_bytes();
        const std::size_t per_shard = vol.shard(0).capacity();
        // One bit per shard-local chunk; every volume chunk must land on
        // a distinct (shard, local chunk) slot.
        std::vector<std::vector<bool>> seen(
            shards, std::vector<bool>(per_shard / cb, false));
        for (std::size_t addr = 0; addr < vol.capacity(); addr += cb) {
            const extent_location loc = vol.locate(addr);
            ASSERT_LT(loc.shard, shards);
            ASSERT_LT(loc.addr, per_shard);
            ASSERT_EQ(loc.addr % cb, 0u);
            ASSERT_FALSE(seen[loc.shard][loc.addr / cb]);
            seen[loc.shard][loc.addr / cb] = true;
        }
        for (const auto& bitmap : seen) {
            for (const bool b : bitmap) EXPECT_TRUE(b);
        }
    }
}

// ---------------------------------------------------------------------
// I/O correctness
// ---------------------------------------------------------------------

TEST(VolumeIO, MirrorsAFlatBufferUnderRandomBoundaryStraddlingOps) {
    volume vol(small_volume(3));
    const std::size_t cap = vol.capacity();
    std::vector<std::byte> mirror(cap, std::byte{0});
    ASSERT_TRUE(vol.write(0, mirror));

    util::xoshiro256 rng(99);
    std::vector<std::byte> buf(3 * vol.chunk_bytes());
    for (int op = 0; op < 300; ++op) {
        // Lengths up to three chunks guarantee plenty of multi-shard and
        // chunk-boundary-straddling extents.
        const std::size_t len = 1 + rng.next_below(buf.size());
        const std::size_t addr = rng.next_below(cap - len + 1);
        const std::span<std::byte> io(buf.data(), len);
        if (rng.next_below(2) == 0) {
            rng.fill(io);
            ASSERT_TRUE(vol.write(addr, io));
            std::memcpy(mirror.data() + addr, buf.data(), len);
        } else {
            ASSERT_TRUE(vol.read(addr, io));
            ASSERT_EQ(std::memcmp(mirror.data() + addr, buf.data(), len), 0)
                << "op " << op << " at " << addr << "+" << len;
        }
    }
    std::vector<std::byte> out(cap);
    ASSERT_TRUE(vol.read(0, out));
    EXPECT_EQ(out, mirror);

    const volume_stats vs = vol.stats();
    EXPECT_GT(vs.multi_shard_ops, 0u);
    EXPECT_GT(vs.staged_bytes, 0u);  // straddling extents used staging
    EXPECT_GE(vs.chunks_routed, vs.reads + vs.writes);
}

// Multi-shard ops always fan out on the per-shard dispatcher threads:
// 200 random extents of up to two chunks (many touching several shards)
// must leave exactly the bytes a host-side shadow image predicts.
TEST(VolumeIO, DispatchedOpsMatchAShadowImage) {
    volume vol(small_volume(4));
    const std::size_t cap = vol.capacity();
    std::vector<std::byte> shadow(cap, std::byte{0});
    ASSERT_TRUE(vol.write(0, shadow));

    util::xoshiro256 rng(7);
    std::vector<std::byte> buf(2 * vol.chunk_bytes());
    for (int op = 0; op < 200; ++op) {
        const std::size_t len = 1 + rng.next_below(buf.size());
        const std::size_t addr = rng.next_below(cap - len + 1);
        const std::span<std::byte> io(buf.data(), len);
        rng.fill(io);
        ASSERT_TRUE(vol.write(addr, io));
        std::memcpy(shadow.data() + addr, io.data(), len);
    }
    std::vector<std::byte> out(cap);
    ASSERT_TRUE(vol.read(0, out));
    EXPECT_EQ(out, shadow);
    EXPECT_GT(vol.stats().multi_shard_ops, 0u);
}

TEST(VolumeIO, WorkerPoolsProduceTheSameBytes) {
    volume_config pooled = small_volume(2);
    pooled.shard.io_queue_depth = 8;
    pooled.io_workers_per_shard = 2;
    volume_config plain = small_volume(2);
    plain.shard.io_queue_depth = 8;
    volume a(pooled);
    volume b(plain);

    const std::vector<std::byte> data = pattern_bytes(a.capacity(), 5);
    ASSERT_TRUE(a.write(0, data));
    ASSERT_TRUE(b.write(0, data));
    std::vector<std::byte> out_a(a.capacity());
    std::vector<std::byte> out_b(b.capacity());
    ASSERT_TRUE(a.read(0, out_a));
    ASSERT_TRUE(b.read(0, out_b));
    EXPECT_EQ(out_a, out_b);
    EXPECT_EQ(out_a, data);
}

// ---------------------------------------------------------------------
// Fault isolation
// ---------------------------------------------------------------------

TEST(VolumeFaults, DegradedShardServesWhileOthersStayClean) {
    volume vol(small_volume(3));  // no spares: shard 1 stays degraded
    const std::vector<std::byte> data = pattern_bytes(vol.capacity(), 11);
    ASSERT_TRUE(vol.write(0, data));

    vol.shard(1).fail_disk(2);
    vol.shard(1).fail_disk(4);  // two erasures: worst decodable case

    std::vector<std::byte> out(vol.capacity());
    ASSERT_TRUE(vol.read(0, out));
    EXPECT_EQ(out, data);

    const volume_stats vs = vol.stats();
    EXPECT_GT(vol.shard(1).stats().degraded_stripe_reads, 0u);
    EXPECT_EQ(vol.shard(0).stats().degraded_stripe_reads, 0u);
    EXPECT_EQ(vol.shard(2).stats().degraded_stripe_reads, 0u);
    EXPECT_EQ(vs.failed_reads, 0u);
    EXPECT_EQ(vol.failed_disk_count(), 2u);
}

TEST(VolumeFaults, RebuildsOneShardWhileWritingTheOthers) {
    volume_config cfg = small_volume(3);
    cfg.shard.hot_spares = 1;
    volume vol(cfg);
    std::vector<std::byte> data = pattern_bytes(vol.capacity(), 13);
    ASSERT_TRUE(vol.write(0, data));

    vol.shard(0).fail_disk(3);
    ASSERT_GT(vol.shard(0).service_background_rebuild(1), 0u);
    ASSERT_TRUE(vol.rebuild_active());

    // Keep writing everywhere while shard 0 rebuilds in the background.
    util::xoshiro256 rng(17);
    std::vector<std::byte> buf(vol.chunk_bytes());
    for (int op = 0; op < 40; ++op) {
        const std::size_t len = 1 + rng.next_below(buf.size());
        const std::size_t addr = rng.next_below(vol.capacity() - len + 1);
        const std::span<std::byte> io(buf.data(), len);
        rng.fill(io);
        ASSERT_TRUE(vol.write(addr, io));
        std::memcpy(data.data() + addr, buf.data(), len);
    }
    vol.drain_background_rebuilds();
    EXPECT_FALSE(vol.rebuild_active());
    EXPECT_EQ(vol.shard(0).stats().rebuilds_completed, 1u);
    EXPECT_EQ(vol.shard(0).stats().spares_promoted, 1u);
    EXPECT_EQ(vol.shard(1).stats().rebuilds_completed, 0u);

    std::vector<std::byte> out(vol.capacity());
    ASSERT_TRUE(vol.read(0, out));
    EXPECT_EQ(out, data);
}

// ---------------------------------------------------------------------
// Stats roll-up and labeled series
// ---------------------------------------------------------------------

TEST(VolumeStats, RollsUpShardsAndExportsLabeledSeries) {
    volume vol(small_volume(2));
    const std::vector<std::byte> data = pattern_bytes(vol.capacity(), 3);
    ASSERT_TRUE(vol.write(0, data));
    std::vector<std::byte> out(vol.capacity());
    ASSERT_TRUE(vol.read(0, out));

    const volume_stats vs = vol.stats();
    EXPECT_EQ(vs.reads, 1u);
    EXPECT_EQ(vs.writes, 1u);
    EXPECT_EQ(vs.shard_total.full_stripe_writes,
              vol.shard(0).stats().full_stripe_writes +
                  vol.shard(1).stats().full_stripe_writes);
    EXPECT_GT(vs.shard_total.full_stripe_writes, 0u);

    const std::string text = vol.obs().metrics_text();
    EXPECT_NE(text.find("liberation_volume_reads_total 1"),
              std::string::npos);
    EXPECT_NE(text.find("liberation_volume_writes_total 1"),
              std::string::npos);
    EXPECT_NE(text.find(
                  "liberation_shard_full_stripe_writes_total{shard=\"0\"}"),
              std::string::npos);
    EXPECT_NE(text.find(
                  "liberation_shard_full_stripe_writes_total{shard=\"1\"}"),
              std::string::npos);
    EXPECT_NE(text.find("liberation_shard_failed_disks{shard=\"1\"}"),
              std::string::npos);
    EXPECT_NE(text.find("liberation_volume_read_ns"), std::string::npos);
}

// ---------------------------------------------------------------------
// Manifest codec
// ---------------------------------------------------------------------

persist::manifest sample_manifest() {
    persist::manifest m;
    m.seq = 5;
    m.volume_uuid = 0xF00DF00DF00DF00DULL;
    m.clean = true;
    m.shards = 3;
    m.chunk_stripes = 2;
    m.k = 4;
    m.p = 5;
    m.element_size = 512;
    m.stripes = 8;
    m.sector_size = 512;
    m.layout = 0;
    m.shard_uuids = {0x11, 0x22, 0x33};
    return m;
}

TEST(VolumeManifest, EncodeDecodeRoundtrip) {
    const persist::manifest m = sample_manifest();
    const std::vector<std::byte> blob = persist::encode(m);
    ASSERT_LE(blob.size(), persist::manifest_slot_size);
    const auto back = persist::decode(blob);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->seq, m.seq);
    EXPECT_EQ(back->volume_uuid, m.volume_uuid);
    EXPECT_EQ(back->clean, m.clean);
    EXPECT_EQ(back->shards, m.shards);
    EXPECT_EQ(back->chunk_stripes, m.chunk_stripes);
    EXPECT_EQ(back->k, m.k);
    EXPECT_EQ(back->p, m.p);
    EXPECT_EQ(back->stripes, m.stripes);
    EXPECT_EQ(back->shard_uuids, m.shard_uuids);
}

TEST(VolumeManifest, TornBytesFailTheCrc) {
    std::vector<std::byte> blob = persist::encode(sample_manifest());
    blob[blob.size() / 2] ^= std::byte{0x40};
    EXPECT_FALSE(persist::decode(blob).has_value());
    EXPECT_FALSE(persist::decode({}).has_value());
}

// ---------------------------------------------------------------------
// Persistence round-trip and the crash-point matrix
// ---------------------------------------------------------------------

persist::volume_mount_options mount_opts(const std::string& dir) {
    persist::volume_mount_options mo;
    mo.store.dir = dir;
    mo.io_queue_depth = 1;
    return mo;
}

TEST(VolumePersist, CreateWriteUnmountMountRoundtrip) {
    const std::string dir = fresh_dir("roundtrip");
    const volume_config cfg = small_volume(2);
    std::vector<std::byte> data;
    std::uint64_t chunk_bytes = 0;
    {
        auto vol = persist::create_volume(cfg, {.dir = dir});
        ASSERT_NE(vol, nullptr);
        ASSERT_TRUE(vol->persistent());
        data = pattern_bytes(vol->capacity(), 21);
        chunk_bytes = vol->chunk_bytes();
        ASSERT_TRUE(vol->write(0, data));
        ASSERT_TRUE(vol->unmount());
    }
    persist::mounted_volume m = persist::mount_volume(mount_opts(dir));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_FALSE(m.report.unclean);  // clean unmount was recorded
    EXPECT_EQ(m.report.manifest_torn_slots, 0);
    EXPECT_EQ(m.report.shards_mounted, 2u);
    ASSERT_EQ(m.report.census.size(), 2u);
    for (const persist::shard_census_entry& e : m.report.census) {
        EXPECT_TRUE(e.dir_present);
        EXPECT_TRUE(e.mounted);
        EXPECT_FALSE(e.foreign);
        EXPECT_FALSE(e.geometry_mismatch);
    }
    EXPECT_EQ(m.vol->chunk_bytes(), chunk_bytes);
    std::vector<std::byte> out(m.vol->capacity());
    ASSERT_TRUE(m.vol->read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_TRUE(m.vol->unmount());
}

TEST(VolumePersist, DroppedWithoutUnmountRemountsUnclean) {
    const std::string dir = fresh_dir("unclean");
    {
        auto vol = persist::create_volume(small_volume(2), {.dir = dir});
        ASSERT_NE(vol, nullptr);
        const std::vector<std::byte> data =
            pattern_bytes(vol->capacity(), 23);
        ASSERT_TRUE(vol->write(0, data));
        // Destroyed with no unmount: the abrupt-death state.
    }
    persist::mounted_volume m = persist::mount_volume(mount_opts(dir));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_TRUE(m.report.unclean);
    EXPECT_TRUE(m.vol->unmount());
}

TEST(VolumePersist, TornNewestManifestSlotFallsBackToPreviousEpoch) {
    const std::string dir = fresh_dir("torn-slot");
    {
        auto vol = persist::create_volume(small_volume(2), {.dir = dir});
        ASSERT_NE(vol, nullptr);
        ASSERT_TRUE(vol->unmount());
    }
    // The newest slot is the one the last persist (unmount, even seq or
    // odd) wrote; tearing it must elect the previous epoch, not refuse.
    const persist::manifest_probe before =
        persist::load_manifest(dir);
    ASSERT_TRUE(before.m.has_value());
    const std::size_t newest_slot = before.m->seq % 2;
    flip_bytes(persist::manifest_path(dir),
               newest_slot * persist::manifest_slot_size + 32, 16);

    persist::mounted_volume m = persist::mount_volume(mount_opts(dir));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_EQ(m.report.manifest_torn_slots, 1);
    EXPECT_TRUE(m.report.manifest_fell_back);
    // The surviving epoch predates the clean-unmount stamp.
    EXPECT_TRUE(m.report.unclean);
    EXPECT_TRUE(m.vol->unmount());
}

TEST(VolumePersist, BothManifestSlotsTornRefusesLoudly) {
    const std::string dir = fresh_dir("both-torn");
    {
        auto vol = persist::create_volume(small_volume(2), {.dir = dir});
        ASSERT_NE(vol, nullptr);
        ASSERT_TRUE(vol->unmount());
    }
    flip_bytes(persist::manifest_path(dir), 32, 16);
    flip_bytes(persist::manifest_path(dir),
               persist::manifest_slot_size + 32, 16);
    persist::mounted_volume m = persist::mount_volume(mount_opts(dir));
    EXPECT_FALSE(m.report.ok);
    EXPECT_EQ(m.vol, nullptr);
    EXPECT_EQ(m.report.manifest_torn_slots, 2);
    EXPECT_NE(m.report.error.find("manifest"), std::string::npos);
}

TEST(VolumePersist, MissingShardDirectoryIsReportedInTheCensus) {
    const std::string dir = fresh_dir("missing-shard");
    {
        auto vol = persist::create_volume(small_volume(3), {.dir = dir});
        ASSERT_NE(vol, nullptr);
        ASSERT_TRUE(vol->unmount());
    }
    std::filesystem::remove_all(persist::shard_dir(dir, 1));
    persist::mounted_volume m = persist::mount_volume(mount_opts(dir));
    EXPECT_FALSE(m.report.ok);
    EXPECT_EQ(m.vol, nullptr);
    ASSERT_EQ(m.report.census.size(), 3u);
    EXPECT_TRUE(m.report.census[0].dir_present);
    EXPECT_FALSE(m.report.census[1].dir_present);
    EXPECT_TRUE(m.report.census[2].dir_present);
    EXPECT_NE(m.report.error.find("shard directory missing"),
              std::string::npos);
}

TEST(VolumePersist, ForeignShardIsReportedAndNeverMounted) {
    const std::string dir_a = fresh_dir("foreign-a");
    const std::string dir_b = fresh_dir("foreign-b");
    {
        auto va = persist::create_volume(small_volume(2), {.dir = dir_a});
        auto vb = persist::create_volume(small_volume(2), {.dir = dir_b});
        ASSERT_NE(va, nullptr);
        ASSERT_NE(vb, nullptr);
        ASSERT_TRUE(va->unmount());
        ASSERT_TRUE(vb->unmount());
    }
    // Drop volume B's shard 1 into volume A's slot 1: same geometry,
    // wrong identity. The census must flag it without writing to it.
    std::filesystem::remove_all(persist::shard_dir(dir_a, 1));
    std::filesystem::copy(persist::shard_dir(dir_b, 1),
                          persist::shard_dir(dir_a, 1),
                          std::filesystem::copy_options::recursive);
    const auto before = std::filesystem::last_write_time(
        persist::shard_dir(dir_a, 1) + "/disk-00.img");

    persist::mounted_volume m = persist::mount_volume(mount_opts(dir_a));
    EXPECT_FALSE(m.report.ok);
    EXPECT_EQ(m.vol, nullptr);
    ASSERT_EQ(m.report.census.size(), 2u);
    EXPECT_FALSE(m.report.census[0].foreign);
    EXPECT_TRUE(m.report.census[1].foreign);
    EXPECT_FALSE(m.report.census[1].mounted);
    EXPECT_NE(m.report.error.find("foreign shard"), std::string::npos);
    EXPECT_EQ(std::filesystem::last_write_time(
                  persist::shard_dir(dir_a, 1) + "/disk-00.img"),
              before);
    // The foreign shard still mounts fine where it belongs.
    persist::mounted_volume b = persist::mount_volume(mount_opts(dir_b));
    ASSERT_TRUE(b.report.ok) << b.report.error;
    EXPECT_TRUE(b.vol->unmount());
}

// ---------------------------------------------------------------------
// Multi-shard chaos
// ---------------------------------------------------------------------

TEST(VolumeChaos, CampaignReplaysBitForBitFromSeed) {
    volume_chaos_config cfg = default_volume_chaos_config(7, 3, 1'800);
    // Denser corruption cadence: the short run still must demonstrate a
    // self-healing read, not just survive.
    cfg.events.corrupt_every = 300;
    const volume_chaos_report a = run_volume_chaos_campaign(cfg);
    const volume_chaos_report b = run_volume_chaos_campaign(cfg);

    EXPECT_TRUE(a.success);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.mismatches, b.mismatches);
    EXPECT_EQ(a.injected_fail_stops, b.injected_fail_stops);
    EXPECT_EQ(a.corruptions_injected, b.corruptions_injected);
    EXPECT_EQ(a.power_losses, b.power_losses);
    EXPECT_EQ(a.resynced_stripes, b.resynced_stripes);
    EXPECT_EQ(a.spares_promoted, b.spares_promoted);
    EXPECT_EQ(a.rebuilds_completed, b.rebuilds_completed);
    EXPECT_EQ(a.settle_scrub_healed, b.settle_scrub_healed);
    EXPECT_EQ(a.success, b.success);
    // Down to the per-shard fault streams: every shard counter equal.
    EXPECT_EQ(a.stats.transient_errors_masked, b.stats.transient_errors_masked);
    EXPECT_EQ(a.stats.degraded_stripe_reads, b.stats.degraded_stripe_reads);
    EXPECT_EQ(a.stats.checksum_mismatches, b.stats.checksum_mismatches);
    EXPECT_EQ(a.stats.reads_self_healed, b.stats.reads_self_healed);
    EXPECT_EQ(a.volume.chunks_routed, b.volume.chunks_routed);
    EXPECT_EQ(a.volume.multi_shard_ops, b.volume.multi_shard_ops);
}

TEST(VolumeChaos, PersistentCampaignKillsAndRemounts) {
    const std::string dir = fresh_dir("chaos");
    volume_chaos_config cfg = default_volume_chaos_config(11, 2, 1'800);
    cfg.persist_enabled = true;
    cfg.dir = dir;
    const volume_chaos_report rep = run_volume_chaos_campaign(cfg);

    EXPECT_EQ(rep.mismatches, 0u);
    EXPECT_EQ(rep.failed_reads, 0u);
    EXPECT_EQ(rep.failed_writes, 0u);
    EXPECT_EQ(rep.scrub_uncorrectable, 0u);
    EXPECT_GE(rep.kills, 2u);  // mid-rebuild + mid-write
    EXPECT_EQ(rep.kills, rep.remounts);
    EXPECT_EQ(rep.mount_failures, 0u);
    EXPECT_GE(rep.rebuilds_resumed, 1u);
    EXPECT_GE(rep.mount_intent_replayed, 1u);
    EXPECT_TRUE(rep.success);

    // The campaign's own exit was clean; the directory mounts clean.
    persist::mounted_volume m = persist::mount_volume(mount_opts(dir));
    ASSERT_TRUE(m.report.ok) << m.report.error;
    EXPECT_FALSE(m.report.unclean);
    EXPECT_TRUE(m.vol->unmount());
}

}  // namespace
