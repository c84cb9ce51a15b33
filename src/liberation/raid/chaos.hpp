// Chaos campaign: a seeded, replayable end-to-end torture test of the
// fault-tolerant storage stack.
//
// A random read/write workload runs against every fault class the
// simulator models — baseline transients, a health-tripping storm,
// fail-stops, latent sectors, silent corruption, gray (fail-slow) disks,
// power loss mid-write and, file-backed, whole-process kills plus remount —
// while hot spares absorb failures and background rebuilds race the
// workload. Every read is checked against a shadow copy, so any stripe the
// optimal Liberation encode/decode paths mishandle shows up as a mismatch.
//
// One campaign core runs against two targets: a single raid6_array (this
// header) and a sharded volume (volume/chaos.hpp). A target supplies only
// what differs — store creation and remount, the host read/write surface,
// its shards, its hub, its schedule — and the core owns every phase and
// the verdict. One seed drives everything through util::xoshiro256: equal
// configs replay bit-for-bit (pinned by tests/golden/chaos).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "liberation/obs/slo.hpp"
#include "liberation/raid/array.hpp"

namespace liberation::util {
class xoshiro256;
}

namespace liberation::raid {

/// Per-disk fault streams must be decorrelated from each other and from
/// the workload stream; splitmix-style odd multiplier does that cheaply.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t n);

/// Knobs every campaign target shares.
struct chaos_options {
    std::uint64_t seed = 42;
    std::size_t ops = 10'000;
    /// Baseline transient error rates armed on every disk of every shard.
    double transient_read_rate = 0.01;
    double transient_write_rate = 0.005;
    /// Largest single read/write (0 = twice the stripe data size).
    std::size_t max_io_bytes = 0;
    /// Fraction of ops that are writes, in tenths (4 = 40%).
    std::uint32_t write_tenths = 4;
    /// Span tracing for the run (Chrome trace JSON in
    /// chaos_report::trace_json); off by default.
    bool trace = false;
    /// Service-level objectives asserted by the verdict. Evaluated every
    /// `slo_every_ops` workload ops and once at the end, over a sliding
    /// `slo_window_ns` window of the target hub's (virtual) clock; a
    /// violation at *any* evaluation fails the run even if the tail
    /// recovered. Empty = no SLO gate.
    std::vector<obs::slo_objective> slo{};
    std::uint64_t slo_window_ns = 1'000'000'000;
    std::size_t slo_every_ops = 256;
    /// Optional event logger (the CLI passes a printf; tests leave null).
    std::function<void(const std::string&)> log{};
};

/// Fault events are *armed* at these op indices and fire at the first
/// subsequent op where the array is quiet (no failed disk, no rebuild in
/// flight), so compound events stay within RAID-6's two-erasure budget.
struct chaos_event_plan {
    std::size_t fail_stop_at_op = 2000;     ///< fail-stop a random disk
    std::size_t health_storm_at_op = 5000;  ///< make one disk trip-worthy
    std::size_t power_loss_at_op = 8000;    ///< cut power mid-write
    /// Inject a latent sector error every N ops (0 = never).
    std::size_t latent_error_every = 1500;
    /// Silently flip bits in a random data strip every N ops (0 = never).
    /// Fires while the array is healthy, degraded, or rebuilding — any
    /// state with at most one masked column, so a flip stays inside the
    /// two-erasure decode budget.
    std::size_t corrupt_every = 900;
    /// Corrupt a stored checksum (the integrity *metadata*) every N ops
    /// (0 = never): exercises the damaged-checksum-domain fallback.
    std::size_t corrupt_integrity_every = 3500;
    /// When the fail-stop fires, also corrupt a survivor column of a
    /// not-yet-rebuilt stripe and immediately scrub: proves the
    /// checksum-first scrubber repairs corruption on degraded stripes the
    /// parity cross-check scrubber had to skip.
    bool degraded_scrub = true;
    /// Fail-slow injection (>= ops disables): at the first quiet op a
    /// random online disk is armed with a seeded constant latency profile
    /// — correct bytes, pathological timing. Requires
    /// array_config::latency.hedged_reads for the array to react (hedge,
    /// then quarantine); without it the disk just drags the clock.
    std::size_t fail_slow_at_op = SIZE_MAX;
    /// The straggler recovers (profile cleared) at this op: quarantine
    /// probes must then un-quarantine it (>= ops = never recovers).
    std::size_t fail_slow_recover_at_op = SIZE_MAX;
    /// Injected service time of the fail-slow disk, microseconds.
    std::uint64_t fail_slow_base_us = 20'000;
};

/// Kill-and-remount persistence phases. When enabled, the campaign runs
/// its array file-backed (persist::create_array in `dir`) and "kills the
/// process" at the planned points: the array object is destroyed with NO
/// unmount — exactly the state an abrupt process death leaves on disk —
/// then mount_array() reassembles it from the backing files and the run
/// continues against the same shadow copy. Covers crashes mid-write
/// (armed like a power loss, so the intent log has an unreplayed entry),
/// mid-rebuild (the remount must resume from the persisted watermark),
/// and "mid-scrub" (silent corruption is on the medium and not yet
/// healed; the post-remount scrub must still find and repair it).
struct chaos_persist_plan {
    bool enabled = false;
    std::string dir;         ///< store directory; files survive every kill
    bool sync_meta = false;  ///< fdatasync superblock persists
    /// Op indices; >= ops disables the phase. Armed events fire at the
    /// first quiet op, the mid-rebuild kill at the first op with a
    /// rebuild actually in flight.
    std::size_t kill_mid_write_at_op = SIZE_MAX;
    std::size_t kill_mid_rebuild_at_op = SIZE_MAX;
    std::size_t kill_mid_scrub_at_op = SIZE_MAX;
};

/// The single-array campaign.
struct chaos_config : chaos_options {
    array_config array{};  ///< must include hot spares for the fault plan
    chaos_persist_plan persist{};
    /// Transient rates of the health-storm disk (should exhaust retries).
    double storm_rate = 0.9;
    chaos_event_plan events{};
};

/// A chaos_config whose array/health/event parameters are tuned so the
/// default plan (trip + fail-stop + power loss, two hot spares) runs
/// cleanly: baseline transients stay below trip thresholds, the storm
/// crosses them.
[[nodiscard]] chaos_config default_chaos_config(std::uint64_t seed,
                                                std::size_t ops = 10'000);

/// Wall-clock seconds spent in each campaign phase, in execution order.
/// (Wall clock, not the array's virtual clock: phases are harness-side
/// work — the workload loop, scrubs, the verify sweep — not single I/Os.)
struct chaos_phase_times {
    double fill_s = 0.0;          ///< initial fill + shadow copy
    double workload_s = 0.0;      ///< the op loop, fault injection included
    double settle_s = 0.0;        ///< rebuild drain, write-hole recovery, resilver
    double settle_scrub_s = 0.0;  ///< the post-settle healing scrub
    double final_verify_s = 0.0;  ///< shadow compare + per-stripe checksum sweep
    double final_scrub_s = 0.0;   ///< the parity-consistency scrub
    /// Time inside the remount across every kill-and-remount, intent
    /// replay included (0 unless the run is file-backed).
    double mount_replay_s = 0.0;

    [[nodiscard]] double total_s() const noexcept {
        return fill_s + workload_s + settle_s + settle_scrub_s +
               final_verify_s + final_scrub_s + mount_replay_s;
    }
};

/// One report for every target; counters a target's plan never exercises
/// stay zero.
struct chaos_report {
    std::size_t ops = 0;
    std::size_t reads = 0;
    std::size_t writes = 0;
    // ---- correctness ----
    std::size_t mismatches = 0;      ///< reads that disagreed with the shadow
    std::size_t failed_reads = 0;    ///< read() returned false (data loss)
    std::size_t failed_writes = 0;   ///< write() returned false
    std::size_t final_torn = 0;      ///< stripes with inconsistent parity at end
    std::size_t final_degraded = 0;  ///< stripes with unavailable columns at end
    std::size_t final_unrecovered = 0;  ///< stripes beyond two erasures at end
    std::size_t scrub_uncorrectable = 0;
    // ---- events that actually fired ----
    std::size_t injected_fail_stops = 0;
    std::size_t latent_errors_injected = 0;
    std::size_t corruptions_injected = 0;  ///< silent data bit-flips
    std::size_t integrity_corruptions_injected = 0;  ///< checksum flips
    std::size_t power_losses = 0;      ///< in-place reboots
    std::size_t resynced_stripes = 0;  ///< write-hole recovery after power loss
    std::size_t resilver_healed = 0;
    /// Corrupt columns the mid-campaign scrub repaired on *degraded*
    /// stripes (the checksum-first capability under test).
    std::size_t degraded_scrub_repairs = 0;
    /// Injected corruption the settle scrub healed (strips the workload
    /// never re-read, including parity strips).
    std::size_t settle_scrub_healed = 0;
    /// Columns that still failed their stored checksum in the final sweep.
    std::size_t final_checksum_bad = 0;
    std::uint64_t health_trips = 0;
    std::uint64_t spares_promoted = 0;
    std::uint64_t rebuilds_completed = 0;
    // ---- fail-slow tolerance ----
    std::size_t fail_slow_injected = 0;  ///< latency profiles armed
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t hedged_reads = 0;
    std::uint64_t hedge_wins = 0;
    std::uint64_t slow_trips = 0;
    std::uint64_t slow_recoveries = 0;
    // ---- kill-and-remount persistence phases ----
    std::size_t kills = 0;           ///< process deaths simulated
    std::size_t remounts = 0;        ///< successful reassemblies
    std::size_t mount_failures = 0;  ///< creates/remounts that refused
    std::size_t mount_intent_replayed = 0;  ///< stripes re-synced during mounts
    std::size_t stale_disks_kicked = 0;     ///< members demoted at mount
    std::size_t rebuilds_resumed = 0;  ///< rebuilds continued from watermarks
    /// Pre-kill silent corruption the post-remount scrub repaired (the
    /// mid-scrub crash point: damage must survive the remount round-trip
    /// and still be healed).
    std::size_t remount_scrub_repairs = 0;
    std::size_t manifest_torn_slots = 0;  ///< volume manifests, every remount
    array_stats stats{};   ///< final counters, every shard and generation
    io_policy_stats io{};  ///< final retry-policy counters, likewise
    chaos_phase_times phases{};
    /// Observability captures, taken just before the campaign returns (the
    /// target is local to the run, so its hub dies with it): the full
    /// Prometheus exposition, every latency-histogram snapshot by name,
    /// and — when chaos_options::trace — the Chrome trace JSON.
    std::string metrics_text;
    std::vector<std::pair<std::string, obs::latency_histogram::snapshot_t>>
        histograms;
    std::string trace_json;
    /// SLO verdict: true when no configured objective ever violated
    /// (vacuously true with no objectives). slo_text is the engine's
    /// final per-objective rendering.
    bool slo_ok = true;
    std::string slo_text;
    bool success = false;

    /// The acceptance predicate: zero corruption AND the full fault plan
    /// exercised. "Zero corruption" includes the integrity invariant — no
    /// host read ever returned bytes that fail their checksum, every
    /// stored checksum verifies at the end — and operational health: no
    /// read was abandoned as unrecoverable and no rebuild session stalled.
    [[nodiscard]] bool clean() const noexcept {
        return mismatches == 0 && failed_reads == 0 && failed_writes == 0 &&
               final_torn == 0 && final_degraded == 0 &&
               final_unrecovered == 0 && scrub_uncorrectable == 0 &&
               final_checksum_bad == 0 && stats.reads_unrecoverable == 0 &&
               stats.rebuild_sessions_stalled == 0;
    }
};

/// Run one single-array campaign. Deterministic: equal configs produce
/// equal reports.
chaos_report run_chaos_campaign(const chaos_config& cfg);

// ---- the campaign core ---------------------------------------------------

enum class chaos_event_kind : std::uint8_t {
    fail_stop,         ///< fail-stop a random online disk
    storm,             ///< transient storm: make one disk trip-worthy
    power_loss,        ///< cut power a few disk writes into a stripe update
    kill_mid_write,    ///< the same cut, then the process dies
    kill_mid_scrub,    ///< leave corruption unhealed on the medium, then die
    fail_slow,         ///< arm a constant latency profile on one disk
    kill_mid_rebuild,  ///< die while the shard's rebuild is in flight
};

/// One event on one shard: it arms at `at_op` (>= ops: never) and fires at
/// the first later op where its shard is quiet (no failed disk, no rebuild
/// in flight, no power cut pending) — kill_mid_rebuild instead waits for a
/// rebuild in flight, which the remount must resume from its watermark.
struct chaos_event {
    chaos_event_kind kind = chaos_event_kind::fail_stop;
    std::size_t at_op = SIZE_MAX;
    std::uint32_t shard = 0;
    bool kill_on_loss = false;  ///< power_loss: die instead of rebooting
};

/// A periodic injection: every `every` ops (0 = never), on `shard`.
struct chaos_periodic {
    std::size_t every = 0;
    std::uint32_t shard = 0;
};

/// A target's fault schedule plus the parts of its acceptance that differ
/// between targets.
struct chaos_schedule {
    /// Priority order: at most one fires per op, the first pending one
    /// whose gate passes.
    std::vector<chaos_event> armed;
    chaos_event kill_mid_rebuild{chaos_event_kind::kill_mid_rebuild};
    std::size_t fail_slow_recover_at_op = SIZE_MAX;
    chaos_periodic latent{};
    chaos_periodic integrity_flip{};
    chaos_periodic corrupt{};  ///< rotates across shards; shard unused
    bool degraded_scrub = false;  ///< fail-stops also corrupt + scrub
    double storm_rate = 0.9;
    std::uint64_t fail_slow_base_us = 20'000;
    // ---- acceptance ----
    bool hot_spares = false;  ///< fail-stops and storms must promote + rebuild
    bool hedged_reads = false;  ///< a fail-slow must be hedged and tripped
    /// Corruption evidence must be a self-healed read (false: a settle
    /// scrub repair counts too — short runs may never re-read the chunk).
    bool heal_on_read = true;
    /// Final verify also checks every readable column of every stripe
    /// against its stored checksum.
    bool checksum_sweep = true;
};

/// How a target's event log words things and lays out its per-disk fault
/// seeds. Neither changes what the campaign does; the goldens pin both.
struct chaos_dialect {
    bool shard_labels = false;  ///< "shard 1 disk 3" instead of "disk 3"
    bool fail_slow_service_time = false;  ///< "(20000us per service)"
    const char* remounting = "remounting";
    const char* remount_failed = "remount FAILED: ";
    const char* full_read = "full-device";
    /// Transient seed of disk d, shard s, generation g:
    /// derive_seed(seed, 64 * s + d + generation_stride * g).
    std::uint64_t generation_stride = 64;
};

/// What differs between campaign targets. The core calls create() once,
/// then drop() + remount() per kill; everything else needs a live store.
class chaos_target {
public:
    [[nodiscard]] virtual const chaos_dialect& dialect() const = 0;
    /// Build the store (file-backed when persistent()); false if refused.
    [[nodiscard]] virtual bool create() = 0;
    [[nodiscard]] virtual bool persistent() const = 0;
    virtual void drop() = 0;  ///< destroy with no unmount: process death
    /// Reassemble the dropped store; adds the mount's counters to `rep`.
    /// `note` is the error (false) or the "remounted: ..." detail (true).
    [[nodiscard]] virtual bool remount(chaos_report& rep,
                                       std::string& note) = 0;
    [[nodiscard]] virtual bool unmount() = 0;
    [[nodiscard]] virtual std::uint32_t shard_count() const = 0;
    [[nodiscard]] virtual raid6_array& shard(std::uint32_t s) = 0;
    [[nodiscard]] virtual bool read(std::size_t addr,
                                    std::span<std::byte> out) = 0;
    [[nodiscard]] virtual bool write(std::size_t addr,
                                     std::span<const std::byte> in) = 0;
    [[nodiscard]] virtual obs::hub& hub() = 0;
    virtual void enable_trace() = 0;
    [[nodiscard]] virtual std::string trace_json() const = 0;
    /// Fold target-level counters before a drop and at the end (the core
    /// folds every shard's array_stats and io_policy_stats itself).
    virtual void fold_stats() {}
    /// The fault schedule, drawn after the fill.
    [[nodiscard]] virtual chaos_schedule schedule(util::xoshiro256& rng) = 0;

protected:
    ~chaos_target() = default;  // targets are never deleted through a base
};

/// Run one campaign against `target` into `rep`.
void run_campaign(chaos_target& target, const chaos_options& opt,
                  chaos_report& rep);

}  // namespace liberation::raid
