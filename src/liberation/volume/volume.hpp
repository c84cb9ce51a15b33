// Scale-out volume: one logical address space striped across N
// independent raid6_array shards.
//
// Placement is chunk-granular round-robin. The volume address space is
// cut into fixed chunks of `chunk_stripes` whole stripes worth of data
// bytes; chunk c lives on shard (c mod N) at local chunk (c div N):
//
//   chunk_bytes = chunk_stripes * stripe_data_size
//   chunk       = addr / chunk_bytes
//   shard       = chunk % shards
//   local addr  = (chunk / shards) * chunk_bytes + addr % chunk_bytes
//
// Consecutive chunks of one shard map to consecutive *local* chunks, so
// however many chunks a host extent spans, its footprint on each shard is
// one gapless local extent — every host op becomes at most one read or
// one write per shard, which keeps the shards' full-stripe and pipelined
// aio paths effective.
//
// Each shard is a complete raid6_array: its own io_policy, health and
// latency monitors, hot-spare pool, intent log, integrity regions,
// virtual clock, and obs hub. Faults are therefore shard-local: a
// double-failure degrades one shard's stripes while the other shards
// serve at full speed, and a background rebuild drains inside one shard
// only. The volume adds a thin dispatcher on top:
//
//   * multi-shard ops fan out on per-shard dispatcher threads (one
//     single-thread pool per shard, so per-shard op order equals host op
//     order — results stay deterministic) and barrier per host op;
//   * each shard can be given a private aio worker pool
//     (io_workers_per_shard), lighting up aio_config::workers so batches
//     for different disks of the same shard overlap too;
//   * a volume-level obs hub rolls the shards up: volume_* counters and
//     histograms plus per-shard labeled series (shard="N").
//
// Persistence (volume/mount.hpp) gives every shard its own store
// directory and adds a CRC-protected volume manifest naming the shard
// set; see volume/manifest.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "liberation/obs/obs.hpp"
#include "liberation/raid/array.hpp"
#include "liberation/util/thread_pool.hpp"
#include "liberation/volume/manifest.hpp"

namespace liberation::volume {

struct volume_config {
    /// Number of raid6_array shards the address space stripes across.
    std::uint32_t shards = 1;
    /// Geometry and behaviour of every shard (identical by construction).
    /// `shard.io_workers` must stay null — the volume owns per-shard
    /// pools; see io_workers_per_shard.
    raid::array_config shard{};
    /// Whole stripes of data per placement chunk. Must divide
    /// shard.stripes. 1 = finest interleave (best single-op fan-out).
    std::size_t chunk_stripes = 1;
    /// Threads in each shard's private aio worker pool (wired into
    /// array_config::io_workers). 0 = shards drive their queue pairs
    /// inline. Per-disk order is preserved either way, but cross-disk
    /// write order becomes nondeterministic with workers — keep 0 for
    /// seeded power-loss / chaos replay (virtual-time *totals* stay
    /// deterministic regardless; see docs/VOLUME.md).
    std::size_t io_workers_per_shard = 0;
};

/// Volume-level operation counters plus the sum of every shard's
/// array_stats. Snapshot semantics match raid::array_stats.
struct volume_stats {
    std::uint64_t reads = 0;            ///< host read ops
    std::uint64_t writes = 0;           ///< host write ops
    std::uint64_t failed_reads = 0;     ///< host reads refused by a shard
    std::uint64_t failed_writes = 0;    ///< host writes refused by a shard
    std::uint64_t chunks_routed = 0;    ///< placement chunks touched
    std::uint64_t multi_shard_ops = 0;  ///< host ops spanning > 1 shard
    std::uint64_t staged_bytes = 0;     ///< gather/scatter through staging
    raid::array_stats shard_total{};    ///< all shards summed
};

/// Where a volume byte lives.
struct extent_location {
    std::uint32_t shard = 0;
    std::size_t addr = 0;  ///< shard-local byte address
};

class volume {
public:
    /// Build an in-memory volume of cfg.shards fresh arrays.
    explicit volume(const volume_config& cfg);
    /// Adopt pre-built shards (the persistence mount path). `arrays`
    /// must all share the geometry cfg.shard describes.
    volume(const volume_config& cfg,
           std::vector<std::unique_ptr<raid::raid6_array>> arrays);
    ~volume();

    volume(const volume&) = delete;
    volume& operator=(const volume&) = delete;

    [[nodiscard]] std::uint32_t shard_count() const noexcept {
        return static_cast<std::uint32_t>(shards_.size());
    }
    [[nodiscard]] raid::raid6_array& shard(std::uint32_t s) {
        return *shards_[s];
    }
    [[nodiscard]] const raid::raid6_array& shard(std::uint32_t s) const {
        return *shards_[s];
    }
    /// Total data capacity: shards * per-shard capacity.
    [[nodiscard]] std::size_t capacity() const noexcept {
        return shards_.size() * shards_[0]->capacity();
    }
    [[nodiscard]] std::size_t chunk_bytes() const noexcept {
        return chunk_bytes_;
    }

    /// Map a volume byte address to (shard, shard-local address).
    [[nodiscard]] extent_location locate(std::size_t addr) const noexcept;

    /// Read [addr, addr+out.size()); false if any touched shard refused
    /// (more than two unavailable columns in one of its stripes).
    [[nodiscard]] bool read(std::size_t addr, std::span<std::byte> out);

    /// Write [addr, addr+in.size()); false if any touched shard refused.
    [[nodiscard]] bool write(std::size_t addr, std::span<const std::byte> in);

    [[nodiscard]] volume_stats stats() const;

    /// Volume-level metrics/tracing hub. volume_* counters and the
    /// per-shard labeled series (liberation_shard_*{shard="N"}) are
    /// mirrored at export time; shard hubs stay independently scrapable
    /// via shard(s).obs().
    [[nodiscard]] obs::hub& obs() noexcept { return obs_; }

    /// Turn span tracing on/off for the volume hub and every shard hub in
    /// one step, so a host op's causal tree is captured end to end.
    void set_tracing(bool on) noexcept;

    /// Merged Chrome trace across the volume tracer and all shard
    /// tracers: pid 1 is the volume ("volume" process), pid 1+s+1 is
    /// shard s (named shard="s"), with flow arrows joining each host
    /// op's volume spans to the shard/array/aio spans it caused.
    [[nodiscard]] std::string trace_json() const;

    [[nodiscard]] std::uint32_t failed_disk_count() const noexcept;
    [[nodiscard]] bool rebuild_active() const noexcept;
    /// Advance every shard's background rebuild by up to
    /// `max_stripes_per_shard`; returns total stripes processed.
    std::size_t service_background_rebuild(std::size_t max_stripes_per_shard);
    void drain_background_rebuilds();

    // ---- persistence (volume/mount.hpp) -------------------------------

    [[nodiscard]] bool persistent() const noexcept {
        return manifest_.has_value();
    }
    /// Adopt the on-disk manifest this volume was mounted from (called by
    /// create_volume/mount_volume; the manifest is persisted unclean).
    void attach_manifest(std::string dir, persist::manifest m, bool sync);
    [[nodiscard]] const persist::manifest* manifest() const noexcept {
        return manifest_ ? &*manifest_ : nullptr;
    }
    /// Clean shutdown: unmount every shard, then persist the manifest
    /// clean. False if any shard superblock or the manifest could not be
    /// written. No-op (true) for in-memory volumes.
    bool unmount();

private:
    /// One shard's gapless share of a host extent.
    struct shard_plan {
        bool touched = false;
        std::size_t lo = 0;  ///< shard-local extent [lo, hi)
        std::size_t hi = 0;
        /// Slice of the shared staging buffer (multi-piece plans only).
        std::size_t stage_off = 0;
        /// Host-buffer byte offset of the piece starting at local `lo`
        /// (later pieces follow in lock-step chunk order).
        struct piece {
            std::size_t host_off;
            std::size_t local_off;
            std::size_t len;
        };
        std::vector<piece> pieces;
    };

    /// Constructor tail shared by the in-memory and mounted forms:
    /// dispatchers, per-shard scratch, clock, obs.
    void init_common(const volume_config& cfg);
    void init_obs();
    /// Cut [addr, addr+len) into per-shard gapless extents; returns the
    /// number of shards touched and counts chunks routed.
    std::uint32_t plan(std::size_t addr, std::size_t len);
    /// Run op(s) for every touched shard; more than one touched shard fans
    /// out on the dispatcher threads.
    bool dispatch(const std::function<bool(std::uint32_t)>& op);

    std::size_t chunk_bytes_ = 0;

    // Pools are declared before the arrays so the arrays (whose aio
    // engines reference io_pools_) are destroyed first.
    std::vector<std::unique_ptr<util::thread_pool>> io_pools_;
    std::vector<std::unique_ptr<util::thread_pool>> dispatch_pools_;
    std::vector<std::unique_ptr<raid::raid6_array>> shards_;

    std::vector<shard_plan> plans_;       // reused per op
    std::vector<std::uint8_t> results_;   // per-shard op outcome
    std::vector<std::byte> staging_;      // gather/scatter bounce buffer

    // Live counters (relaxed; mirrored into obs_ by a collector).
    std::atomic<std::uint64_t> reads_{0};
    std::atomic<std::uint64_t> writes_{0};
    std::atomic<std::uint64_t> failed_reads_{0};
    std::atomic<std::uint64_t> failed_writes_{0};
    std::atomic<std::uint64_t> chunks_routed_{0};
    std::atomic<std::uint64_t> multi_shard_ops_{0};
    std::atomic<std::uint64_t> staged_bytes_{0};

    obs::hub obs_;
    obs::latency_histogram* read_ns_ = nullptr;
    obs::latency_histogram* write_ns_ = nullptr;

    std::optional<persist::manifest> manifest_;
    std::string manifest_dir_;
    bool manifest_sync_ = false;
};

}  // namespace liberation::volume
