// Mount / create entry points for persistent RAID-6 arrays.
//
// create_array() formats a fresh store (one backing file per disk, file
// header + A/B superblock slots + data area) and returns a live array
// wired to it. mount_array() reassembles an array from whatever the
// directory holds, md-style:
//
//   1. *Probe* every disk file read-only: decode the write-once header
//      and both superblock shadow slots (a torn slot fails its CRC and
//      the other slot is used).
//   2. *Elect an authority*: among the decodable superblocks, the
//      majority array-UUID wins, and within it the copy with the highest
//      (events, seq) — the member that saw the most recent membership
//      epoch. Its replicated tables (geometry, slot states, rebuild
//      watermarks, intent log, spare level) describe the array.
//   3. *Classify each slot* and degrade gracefully instead of refusing
//      to assemble:
//        - foreign UUID or mismatched geometry -> the slot is failed and
//          its file is left alone (it belongs to some other array);
//        - missing file, unreadable header, or both superblock slots
//          torn -> the disk is re-initialized blank and *kicked* to a
//          rebuild target (stale_disks_kicked);
//        - events more than one epoch behind the authority -> the data
//          cannot be trusted (an old copy was restored); kicked likewise;
//        - otherwise the member is current: its data area is loaded and
//          its private checksum table restored.
//      More than two failed (non-rebuildable) slots fails the mount
//      loudly — that is data loss, not a degraded mode.
//   4. *Resume*: rebuilding members continue from their persisted
//      watermarks; the persisted intent log is restored and replayed
//      (each journaled stripe re-synced, oldest hazard first) before the
//      array is handed to the caller.
//
// Both paths return arrays whose every subsequent mutation flows back
// into the store (media sinks + superblock persists); raid6_array::
// unmount() stamps the images clean. See docs/PERSISTENCE.md.
#pragma once

#include <memory>
#include <string>

#include "liberation/raid/array.hpp"
#include "liberation/raid/persist/store.hpp"

namespace liberation::raid::persist {

/// Runtime knobs for mounting. Geometry, spare level, and intent-log
/// capacity come from the superblocks; everything here is per-process
/// policy that is deliberately *not* persisted. A volume mount applies
/// the same policy to every shard.
struct mount_policy {
    std::size_t io_queue_depth = 8;
    bool io_merge = true;
    bool verify_reads = true;
    io_policy_config io_retry{};
    health_config health{};
    /// Fail-slow tolerance (hedged reads, quarantine). Thresholds are
    /// per-process policy; the quarantine *state* is persisted (slot-state
    /// slow bit) and re-entered at mount when this layer is enabled.
    latency_config latency{};
    std::size_t rebuild_batch_stripes = 4;
    bool auto_failover = true;
    bool obs_virtual_time = false;
    /// Replay the persisted intent log before returning (on by default;
    /// tests disable it to inspect the restored journal).
    bool replay_intent = true;
};

struct mount_options : mount_policy {
    store_config store;
    util::thread_pool* io_workers = nullptr;
};

/// What mount found and did. `ok == false` leaves `array` null and
/// `error` set; everything else is informational.
struct mount_report {
    bool ok = false;
    std::string error;
    std::uint32_t disks_total = 0;
    std::uint32_t disks_online = 0;       ///< current members (incl. rebuilding)
    std::uint32_t torn_superblock_slots = 0;  ///< A/B copies failing their CRC
    std::uint32_t stale_kicked = 0;  ///< members demoted to blank rebuild targets
    std::uint32_t foreign = 0;       ///< files of another array (left alone)
    std::uint32_t unreadable = 0;    ///< missing/unreadable files re-initialized
    bool unclean = false;            ///< last shutdown was not unmount()
    std::size_t intent_entries = 0;  ///< journal entries restored
    std::size_t intent_replayed = 0; ///< journaled stripes re-synced now
    std::uint32_t rebuilds_resumed = 0;  ///< members resuming from a watermark
    double mount_s = 0.0;            ///< wall time, also in raid_mount_ns
};

struct mounted_array {
    std::unique_ptr<raid6_array> array;
    mount_report report;
};

/// Format a fresh persistent array in `scfg.dir`. A zero `uuid` draws a
/// random one. `cfg.intent_log_entries == 0` (unbounded) is forced to a
/// bounded default of 64 — the serialized intent area must have a fixed
/// worst-case size. Returns null if the backing files cannot be created.
[[nodiscard]] std::unique_ptr<raid6_array> create_array(
    const array_config& cfg, const store_config& scfg, std::uint64_t uuid = 0);

/// Reassemble the array persisted in `opts.store.dir` (see file header).
[[nodiscard]] mounted_array mount_array(const mount_options& opts);

/// The mount policy that brings back an array created from `cfg`: every
/// per-process knob of array_config, so a remount keeps the policy the
/// array ran with (hedged reads, queue depth, retry budget, ...).
[[nodiscard]] mount_policy mount_policy_for(const array_config& cfg);

}  // namespace liberation::raid::persist
