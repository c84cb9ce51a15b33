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
// Everything is driven by one seed through util::xoshiro256 exactly as
// in the single-array campaign: equal configs replay the same campaign
// bit-for-bit, although multi-shard ops fan out on threads (per-shard
// dispatcher threads serialize each shard's ops in host order, and every
// random draw happens on the campaign thread).
#pragma once

#include <cstdint>
#include <functional>
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

struct volume_chaos_config {
    std::uint64_t seed = 42;
    std::size_t ops = 6000;
    /// Shard count, per-shard geometry (must include hot spares for the
    /// fault plan), chunk size, dispatch mode.
    volume_config volume{};
    /// Run file-backed (persist::create_volume in `dir`) and exercise the
    /// kill-and-remount crash points.
    bool persist_enabled = false;
    std::string dir;
    bool sync_meta = false;
    /// Baseline transient error rates armed on every disk of every shard.
    double transient_read_rate = 0.01;
    double transient_write_rate = 0.005;
    /// Largest single read/write (0 = twice the shard stripe data size).
    std::size_t max_io_bytes = 0;
    std::uint32_t write_tenths = 4;  ///< fraction of ops that write, tenths
    volume_chaos_event_plan events{};
    /// Enable span tracing on the volume hub and every shard hub; the
    /// merged Chrome trace lands in volume_chaos_report::trace_json.
    bool trace = false;
    /// Service-level objectives asserted by the verdict (same contract
    /// as chaos_config::slo, evaluated on the volume hub).
    std::vector<obs::slo_objective> slo{};
    std::uint64_t slo_window_ns = 1'000'000'000;
    std::size_t slo_every_ops = 256;
    std::function<void(const std::string&)> log{};
};

/// A volume_chaos_config tuned like default_chaos_config: baseline
/// transients stay below trip thresholds, every shard carries two hot
/// spares, and the event plan is scaled to `ops`.
[[nodiscard]] volume_chaos_config default_volume_chaos_config(
    std::uint64_t seed, std::uint32_t shards, std::size_t ops = 6000);

struct volume_chaos_report {
    std::size_t ops = 0;
    std::size_t reads = 0;
    std::size_t writes = 0;
    // ---- correctness ----
    std::size_t mismatches = 0;     ///< reads that disagreed with the shadow
    std::size_t failed_reads = 0;
    std::size_t failed_writes = 0;
    std::size_t final_torn = 0;     ///< stripes inconsistent at the end
    std::size_t scrub_uncorrectable = 0;
    // ---- events that actually fired ----
    std::size_t injected_fail_stops = 0;  ///< across shards A and B
    std::size_t corruptions_injected = 0;
    std::size_t power_losses = 0;       ///< in-place reboots (non-persist)
    std::size_t resynced_stripes = 0;   ///< write-hole recovery
    std::size_t resilver_healed = 0;
    std::size_t settle_scrub_healed = 0;
    std::uint64_t spares_promoted = 0;
    std::uint64_t rebuilds_completed = 0;
    // ---- fail-slow tolerance (shard C) ----
    std::size_t fail_slow_injected = 0;
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t hedged_reads = 0;
    std::uint64_t hedge_wins = 0;
    std::uint64_t slow_trips = 0;
    std::uint64_t slow_recoveries = 0;
    // ---- kill-and-remount (persistent runs) ----
    std::size_t kills = 0;
    std::size_t remounts = 0;            ///< successful mount_volume() calls
    std::size_t mount_failures = 0;
    std::size_t mount_intent_replayed = 0;
    std::size_t rebuilds_resumed = 0;
    std::size_t manifest_torn_slots = 0;  ///< across every remount
    volume_stats stats{};                 ///< final roll-up, kills included
    raid::chaos_phase_times phases{};
    std::string metrics_text;  ///< volume hub exposition at campaign end
    /// Merged volume+shard Chrome trace (volume_chaos_config::trace).
    std::string trace_json;
    /// SLO verdict (vacuously ok with no objectives) and the engine's
    /// final per-objective rendering.
    bool slo_ok = true;
    std::string slo_text;
    bool success = false;

    /// Zero-corruption predicate (same contract as chaos_report::clean).
    [[nodiscard]] bool clean() const noexcept {
        return mismatches == 0 && failed_reads == 0 && failed_writes == 0 &&
               final_torn == 0 && scrub_uncorrectable == 0 &&
               stats.shard_total.reads_unrecoverable == 0 &&
               stats.shard_total.rebuild_sessions_stalled == 0;
    }
};

/// Run one multi-shard campaign. Deterministic: equal configs produce
/// equal reports.
volume_chaos_report run_volume_chaos_campaign(const volume_chaos_config& cfg);

}  // namespace liberation::volume
