// Multi-shard chaos campaign: the volume-level counterpart of
// raid/chaos.hpp.
//
// Where the single-array campaign proves one raid6_array survives a
// compound fault plan, this one proves the *isolation story* of the
// volume layer: different shards are killed, corrupted, and slow-grayed
// concurrently — a fail-stop (with hot-spare failover and background
// rebuild) on shard A, a second fail-stop on shard B while shard C is
// dragging under an injected gray failure, silent corruption rotating
// across all shards, and (persistent runs) whole-process kills mid-write
// and mid-rebuild followed by mount_volume() reassembly — while a random
// read/write workload over the full volume address space is checked
// against a shadow copy after every read.
//
// It is the volume target of the campaign core in raid/chaos.hpp. Equal
// configs replay bit-for-bit although multi-shard ops fan out on threads:
// per-shard dispatchers serialize each shard's ops in host order, and
// every random draw happens on the campaign thread.
#pragma once

#include <cstdint>
#include <string>

#include "liberation/raid/chaos.hpp"
#include "liberation/volume/mount.hpp"
#include "liberation/volume/volume.hpp"

namespace liberation::volume {

/// Op indices are *arming* points; each event fires at the first
/// subsequent op where its target shard is quiet, so no shard ever holds
/// more faults than RAID-6 decodes around. Shard roles: A = rng-picked,
/// B = (A+1) mod N, C = (A+2) mod N (C falls back to A when N == 2, by
/// which time A's rebuild has long drained). >= ops disables an event.
struct volume_chaos_event_plan {
    std::size_t fail_stop_a_at_op = 1000;   ///< fail-stop a disk of shard A
    std::size_t fail_stop_b_at_op = 3000;   ///< fail-stop a disk of shard B
    /// Whole-process kill at the first op with shard A's rebuild in
    /// flight (persistent runs only): the remount must resume it from the
    /// persisted watermark.
    std::size_t kill_mid_rebuild_at_op = 1001;
    /// Gray failure on a disk of shard C (constant service latency);
    /// requires volume.shard.latency.hedged_reads for the shard to react.
    std::size_t fail_slow_at_op = 2000;
    std::size_t fail_slow_recover_at_op = 4200;
    std::uint64_t fail_slow_base_us = 20'000;
    /// Power-cut a few disk writes into some stripe update of shard B:
    /// persistent runs die and remount (intent replay), in-memory runs
    /// reboot and recover the write hole in place.
    std::size_t power_or_kill_at_op = 4800;
    /// Silently flip bits every N ops, rotating the target shard (0 =
    /// never).
    std::size_t corrupt_every = 900;
};

/// The volume campaign: the shared chaos_options plus the volume geometry
/// and its shard-role plan.
struct volume_chaos_config : raid::chaos_options {
    volume_chaos_config() { ops = 6000; }
    /// Shard count, per-shard geometry (must include hot spares for the
    /// fault plan), chunk size, dispatch mode.
    volume_config volume{};
    /// Run file-backed (persist::create_volume in `dir`) and exercise the
    /// kill-and-remount crash points.
    bool persist_enabled = false;
    std::string dir;
    bool sync_meta = false;
    volume_chaos_event_plan events{};
};

/// A volume_chaos_config tuned like default_chaos_config: baseline
/// transients stay below trip thresholds, every shard carries two hot
/// spares, and the event plan is scaled to `ops`.
[[nodiscard]] volume_chaos_config default_volume_chaos_config(
    std::uint64_t seed, std::uint32_t shards, std::size_t ops = 6000);

/// The shared chaos_report (its array_stats summed over every shard) plus
/// the volume's own routing counters.
struct volume_chaos_report : raid::chaos_report {
    volume_stats volume{};  ///< final volume roll-up, kills included
};

/// Run one multi-shard campaign. Deterministic: equal configs produce
/// equal reports.
volume_chaos_report run_volume_chaos_campaign(const volume_chaos_config& cfg);

}  // namespace liberation::volume
