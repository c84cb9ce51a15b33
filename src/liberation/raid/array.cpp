#include "liberation/raid/array.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "liberation/aio/stripe_io.hpp"
#include "liberation/core/error_correction.hpp"
#include "liberation/obs/flight_recorder.hpp"
#include "liberation/obs/postmortem.hpp"
#include "liberation/raid/persist/store.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/util/assert.hpp"
#include "liberation/util/primes.hpp"
#include "liberation/xorops/xorops.hpp"

namespace liberation::raid {

void accumulate(array_stats& into, const array_stats& add) {
    into.full_stripe_writes += add.full_stripe_writes;
    into.small_writes += add.small_writes;
    into.parity_elements_updated += add.parity_elements_updated;
    into.degraded_stripe_reads += add.degraded_stripe_reads;
    into.degraded_element_reads += add.degraded_element_reads;
    into.media_errors_recovered += add.media_errors_recovered;
    into.transient_errors_masked += add.transient_errors_masked;
    into.retries_exhausted += add.retries_exhausted;
    into.disks_tripped += add.disks_tripped;
    into.spares_promoted += add.spares_promoted;
    into.rebuilds_completed += add.rebuilds_completed;
    into.rebuild_stripes_failed += add.rebuild_stripes_failed;
    into.rebuild_sessions_stalled += add.rebuild_sessions_stalled;
    into.checksum_mismatches += add.checksum_mismatches;
    into.reads_self_healed += add.reads_self_healed;
    into.reads_unrecoverable += add.reads_unrecoverable;
    into.checksum_metadata_repaired += add.checksum_metadata_repaired;
    into.writes_rejected_log_full += add.writes_rejected_log_full;
    into.deadline_exceeded += add.deadline_exceeded;
    into.hedged_reads += add.hedged_reads;
    into.hedge_wins += add.hedge_wins;
    into.slow_trips += add.slow_trips;
    into.slow_recoveries += add.slow_recoveries;
    into.slow_routed_reads += add.slow_routed_reads;
    into.intent_replayed += add.intent_replayed;
    into.stale_disks_kicked += add.stale_disks_kicked;
    into.aio_batches += add.aio_batches;
    into.aio_merges += add.aio_merges;
    into.aio_split_retries += add.aio_split_retries;
    into.aio_inflight_highwater =
        std::max(into.aio_inflight_highwater, add.aio_inflight_highwater);
}

namespace {

std::uint32_t effective_p(const array_config& cfg) {
    return cfg.p != 0 ? cfg.p : util::next_odd_prime(cfg.k);
}

}  // namespace

array_stats raid6_array::atomic_stats::snapshot() const noexcept {
    array_stats s;
    s.full_stripe_writes = full_stripe_writes.load(std::memory_order_relaxed);
    s.small_writes = small_writes.load(std::memory_order_relaxed);
    s.parity_elements_updated =
        parity_elements_updated.load(std::memory_order_relaxed);
    s.degraded_stripe_reads =
        degraded_stripe_reads.load(std::memory_order_relaxed);
    s.degraded_element_reads =
        degraded_element_reads.load(std::memory_order_relaxed);
    s.media_errors_recovered =
        media_errors_recovered.load(std::memory_order_relaxed);
    s.transient_errors_masked =
        transient_errors_masked.load(std::memory_order_relaxed);
    s.retries_exhausted = retries_exhausted.load(std::memory_order_relaxed);
    s.disks_tripped = disks_tripped.load(std::memory_order_relaxed);
    s.spares_promoted = spares_promoted.load(std::memory_order_relaxed);
    s.rebuilds_completed = rebuilds_completed.load(std::memory_order_relaxed);
    s.rebuild_stripes_failed =
        rebuild_stripes_failed.load(std::memory_order_relaxed);
    s.rebuild_sessions_stalled =
        rebuild_sessions_stalled.load(std::memory_order_relaxed);
    s.checksum_mismatches = checksum_mismatches.load(std::memory_order_relaxed);
    s.reads_self_healed = reads_self_healed.load(std::memory_order_relaxed);
    s.reads_unrecoverable =
        reads_unrecoverable.load(std::memory_order_relaxed);
    s.checksum_metadata_repaired =
        checksum_metadata_repaired.load(std::memory_order_relaxed);
    s.writes_rejected_log_full =
        writes_rejected_log_full.load(std::memory_order_relaxed);
    s.deadline_exceeded = deadline_exceeded.load(std::memory_order_relaxed);
    s.hedged_reads = hedged_reads.load(std::memory_order_relaxed);
    s.hedge_wins = hedge_wins.load(std::memory_order_relaxed);
    s.slow_trips = slow_trips.load(std::memory_order_relaxed);
    s.slow_recoveries = slow_recoveries.load(std::memory_order_relaxed);
    s.slow_routed_reads = slow_routed_reads.load(std::memory_order_relaxed);
    s.intent_replayed = intent_replayed.load(std::memory_order_relaxed);
    s.stale_disks_kicked = stale_disks_kicked.load(std::memory_order_relaxed);
    return s;
}

array_stats raid6_array::stats() const noexcept {
    array_stats s = stats_.snapshot();
    // Atomic engine counters, snapshotted by value: as consistent as the
    // relaxed snapshot above even against worker-pool batches in flight.
    const aio::aio_stats a = aio_engine_->stats();
    s.aio_batches = a.batches;
    s.aio_merges = a.merges;
    s.aio_split_retries = a.split_retries;
    s.aio_inflight_highwater = a.inflight_highwater;
    return s;
}

raid6_array::raid6_array(const array_config& cfg)
    : map_(cfg.k, effective_p(cfg), cfg.element_size, cfg.stripes, cfg.layout),
      code_(cfg.k, effective_p(cfg)),
      sector_size_(cfg.sector_size),
      journal_(cfg.intent_log_entries),
      verify_reads_(cfg.verify_reads),
      integrity_block_(std::gcd(cfg.sector_size, map_.element_size())),
      policy_(cfg.io_retry, clock_),
      health_(map_.n(), cfg.health),
      latmon_(map_.n(), cfg.latency),
      auto_failover_(cfg.auto_failover),
      rebuild_batch_stripes_(cfg.rebuild_batch_stripes == 0
                                 ? 1
                                 : cfg.rebuild_batch_stripes),
      next_disk_id_(map_.n() + cfg.hot_spares) {
    // Intent-log column masks are 64-bit (see intent_log::mark).
    LIBERATION_EXPECTS(map_.n() <= 64);
    disks_.reserve(map_.n());
    regions_.reserve(map_.n());
    for (std::uint32_t d = 0; d < map_.n(); ++d) {
        disks_.push_back(std::make_unique<vdisk>(d, map_.disk_capacity(),
                                                 cfg.sector_size));
        regions_.emplace_back(map_.disk_capacity(), integrity_block_);
    }
    spares_.reserve(cfg.hot_spares);
    for (std::uint32_t s = 0; s < cfg.hot_spares; ++s) {
        spares_.push_back(std::make_unique<vdisk>(
            map_.n() + s, map_.disk_capacity(), cfg.sector_size));
    }
    init_obs(cfg);
    aio::aio_config acfg;
    acfg.queue_depth = std::max<std::size_t>(1, cfg.io_queue_depth);
    acfg.merge_adjacent = cfg.io_merge;
    acfg.workers = cfg.io_workers;
    acfg.obs = &obs_;
    rebuild_aio_engine(acfg);
}

raid6_array::~raid6_array() = default;

void raid6_array::init_obs(const array_config& cfg) {
    if (cfg.obs_virtual_time) obs_.set_clock(&virtual_clock_now_ns, &clock_);
    policy_.attach_obs(&obs_);
    auto& m = obs_.metrics();
    hist_read_ = &m.get_histogram(
        "raid_read_ns", "host read latency (verified-read path included)");
    hist_write_full_ = &m.get_histogram("raid_write_full_stripe_ns",
                                        "full-stripe write latency");
    hist_write_small_ = &m.get_histogram(
        "raid_write_small_ns", "small (read-modify-write) write latency");
    // Registered here (not recorded here) so the exposition always shows
    // the families: rebuild.cpp and scrubber.cpp record into them.
    (void)m.get_histogram("raid_rebuild_window_ns",
                          "rebuild window latency (rebuild_stripe_range)");
    (void)m.get_histogram("raid_scrub_stripe_ns", "per-stripe scrub latency");
    // Recorded by persist::mount_array when this array is assembled from a
    // store; registered here so the family is always in the exposition.
    (void)m.get_histogram("raid_mount_ns",
                          "persistent-array mount latency "
                          "(probe, image load, intent replay)");
    hist_hedge_delay_ = &m.get_histogram(
        "raid_hedge_delay_ns",
        "hedge-issue to first-completion delay of hedged reads");
    gauge_failed_disks_ =
        &m.get_gauge("raid_failed_disks", "disks currently failed");
    gauge_spares_ =
        &m.get_gauge("raid_spares_available", "hot spares still in the pool");
    gauge_rebuild_remaining_ = &m.get_gauge(
        "raid_rebuild_stripes_remaining",
        "stripes the background rebuild session has yet to process");
    gauge_journal_ = &m.get_gauge(
        "raid_intent_log_entries", "stripes journaled in the intent log");
    gauge_spares_->set(static_cast<std::int64_t>(spares_.size()));
    obs_.add_collector([this] { mirror_counters(); });
}

void raid6_array::mirror_counters() {
    auto& m = obs_.metrics();
    const auto mir = [&m](const char* name, const char* help,
                          std::uint64_t v) {
        m.get_counter(name, help).mirror(v);
    };
    const array_stats s = stats();
    mir("raid_full_stripe_writes_total", "full-stripe writes",
        s.full_stripe_writes);
    mir("raid_small_writes_total", "read-modify-write small writes",
        s.small_writes);
    mir("raid_parity_elements_updated_total",
        "parity elements patched by small writes", s.parity_elements_updated);
    mir("raid_degraded_stripe_reads_total", "full-stripe decodes on read",
        s.degraded_stripe_reads);
    mir("raid_degraded_element_reads_total", "row-parity fast-path decodes",
        s.degraded_element_reads);
    mir("raid_media_errors_recovered_total",
        "latent sector errors healed by decode", s.media_errors_recovered);
    mir("raid_transient_errors_masked_total", "ops saved by retries",
        s.transient_errors_masked);
    mir("raid_retries_exhausted_total", "ops transient after the full budget",
        s.retries_exhausted);
    mir("raid_disks_tripped_total", "disks failed by the health monitor",
        s.disks_tripped);
    mir("raid_spares_promoted_total", "hot spares promoted", s.spares_promoted);
    mir("raid_rebuilds_completed_total", "background rebuild sessions finished",
        s.rebuilds_completed);
    mir("raid_rebuild_stripes_failed_total",
        "stripes unrecoverable during background rebuild",
        s.rebuild_stripes_failed);
    mir("raid_rebuild_sessions_stalled_total",
        "rebuild sessions needing the operator", s.rebuild_sessions_stalled);
    mir("raid_checksum_mismatches_total", "blocks failing their stored CRC",
        s.checksum_mismatches);
    mir("raid_reads_self_healed_total", "stripes repaired on read",
        s.reads_self_healed);
    mir("raid_reads_unrecoverable_total", "verified reads refused",
        s.reads_unrecoverable);
    mir("raid_checksum_metadata_repaired_total",
        "stale or damaged stored checksums refreshed",
        s.checksum_metadata_repaired);
    mir("raid_writes_rejected_log_full_total",
        "writes refused because the intent log was at capacity",
        s.writes_rejected_log_full);
    mir("raid_intent_replayed_total",
        "journaled stripes re-synced during mount replay", s.intent_replayed);
    mir("raid_stale_disks_kicked_total",
        "stale or unreadable members demoted to rebuild at mount",
        s.stale_disks_kicked);
    mir("raid_deadline_exceeded_total",
        "reads that outlived their adaptive deadline", s.deadline_exceeded);
    mir("raid_hedged_reads_total", "reconstruction hedges issued",
        s.hedged_reads);
    mir("raid_hedge_wins_total", "hedges that beat the straggler",
        s.hedge_wins);
    mir("raid_slow_trips_total", "disks quarantined as suspect_slow",
        s.slow_trips);
    mir("raid_slow_recoveries_total", "quarantines lifted by on-time probes",
        s.slow_recoveries);
    mir("raid_slow_routed_reads_total",
        "reads routed around a quarantined disk via decode",
        s.slow_routed_reads);
    // Per-disk series: one labeled sample per slot so a straggling or
    // error-prone member is identifiable from the exposition alone.
    for (std::uint32_t d = 0; d < latmon_.disk_count(); ++d) {
        const std::string label = "disk=\"" + std::to_string(d) + "\"";
        const disk_latency_stats ls = latmon_.stats(d);
        m.get_labeled_counter("disk_deadline_misses_total", label,
                              "per-disk reads missing their deadline")
            .mirror(ls.deadline_misses);
        m.get_labeled_counter("disk_slow_trips_total", label,
                              "per-disk suspect_slow quarantine entries")
            .mirror(ls.slow_trips);
        m.get_labeled_counter("disk_hedged_reads_total", label,
                              "per-disk reconstruction hedges issued")
            .mirror(ls.hedged_reads);
        if (d < health_.disk_count()) {
            const disk_health_stats h = health_.stats(d);
            m.get_labeled_counter("disk_transient_errors_total", label,
                                  "per-disk transient errors seen")
                .mirror(h.transient_errors);
            m.get_labeled_counter("disk_hard_errors_total", label,
                                  "per-disk hard (medium/device) errors")
                .mirror(h.hard_read_errors + h.hard_write_errors);
        }
    }
    const io_policy_stats io = policy_.stats();
    mir("io_reads_total", "disk reads through the retry policy", io.reads);
    mir("io_writes_total", "disk writes through the retry policy", io.writes);
    mir("io_retries_total", "extra attempts issued", io.retries);
    mir("io_backoff_us_total", "virtual time spent in retry backoff",
        io.backoff_us);
    const aio::aio_stats a = aio_engine_->stats();
    mir("aio_submitted_total", "requests accepted into the ring", a.submitted);
    mir("aio_completed_total", "completions delivered", a.completed);
    mir("aio_batches_total", "transfers issued to the backend", a.batches);
    mir("aio_merges_total", "reads absorbed into a neighbour", a.merges);
    mir("aio_split_retries_total", "merged transfers re-driven split",
        a.split_retries);
    m.get_gauge("aio_inflight_highwater", "max pending on any one disk")
        .set(static_cast<std::int64_t>(a.inflight_highwater));
}

void raid6_array::update_health_gauges() noexcept {
    gauge_failed_disks_->set(failed_disk_count());
    gauge_spares_->set(static_cast<std::int64_t>(spares_.size()));
    gauge_rebuild_remaining_->set(
        static_cast<std::int64_t>(rebuild_stripes_remaining()));
}

void raid6_array::rebuild_aio_engine(const aio::aio_config& acfg) {
    aio_engine_ = std::make_unique<aio::queue_pair>(backend_, map_.n(), acfg);
    // Checksum verification as a completion-stage decorator: it sees the
    // final status of the execution stage, so transient errors have
    // already been retried (a mismatch, by contrast, is never retried —
    // re-reading rotten bytes cannot un-rot them). Mirrors
    // verified_disk_read() on the host read path.
    aio_engine_->add_completion_stage(
        [this](const aio::io_desc& d, io_status st) {
            if (st != io_status::ok || d.kind != aio::op_kind::read ||
                (d.flags & aio::flag_verify) == 0 || !verify_reads_) {
                return st;
            }
            if (!regions_[d.disk].verify(d.offset, {d.data, d.len})) {
                stats_.checksum_mismatches.fetch_add(
                    1, std::memory_order_relaxed);
                return io_status::checksum_mismatch;
            }
            return st;
        });
}

io_status raid6_array::disk_backend::execute(const aio::io_desc& d) {
    if (d.kind == aio::op_kind::read) {
        return owner.disk_read(d.disk, d.offset,
                               std::span<std::byte>(d.data, d.len));
    }
    return owner.disk_write(
        d.disk, d.offset, std::span<const std::byte>(d.data, d.len), d.crcs);
}

void raid6_array::add_data_disk() {
    // A persistent array's on-disk framing (file count, slot tables,
    // checksum table sizes) is fixed at format time; growth would need a
    // reshape pass the store does not implement.
    LIBERATION_EXPECTS(store_ == nullptr);
    LIBERATION_EXPECTS(map_.layout() == parity_layout::parity_first);
    LIBERATION_EXPECTS(map_.k() < code_.p());
    LIBERATION_EXPECTS(failed_disk_count() == 0);
    const std::uint32_t new_k = map_.k() + 1;
    disks_.push_back(std::make_unique<vdisk>(next_disk_id_++,
                                             map_.disk_capacity(),
                                             sector_size_));
    map_ = stripe_map(new_k, map_.rows(), map_.element_size(), map_.stripes(),
                      parity_layout::parity_first);
    code_ = core::liberation_optimal_code(new_k, code_.p());
    LIBERATION_EXPECTS(map_.n() <= 64);
    // The new column is blank (all zeros), which is exactly what a fresh
    // integrity region describes.
    regions_.emplace_back(map_.disk_capacity(), integrity_block_);
    health_.add_disk();
    latmon_.add_disk();
    // The engine's per-disk rings are sized at construction; rebuild it
    // for the grown array (it is idle here — growth requires all disks
    // online and no I/O in flight).
    rebuild_aio_engine(aio_engine_->config());
}

std::uint32_t raid6_array::failed_disk_count() const noexcept {
    std::uint32_t n = 0;
    for (const auto& d : disks_) {
        if (!d->online()) ++n;
    }
    return n;
}

// ---- I/O funnel ------------------------------------------------------

bool raid6_array::rebuild_masked(std::uint32_t d, std::size_t offset,
                                 std::size_t len) const noexcept {
    if (!rebuild_active_) return false;
    // Strips at or past the member's cursor are blank. The mask covers
    // the whole extent when its *last* strip is masked (stripes only ever
    // become unmasked from the front), which makes coalesced multi-strip
    // reads conservative: the aio split-retry re-drives the fragments and
    // only the truly masked ones stay erased.
    const std::size_t last_stripe =
        (offset + (len == 0 ? 0 : len - 1)) / map_.strip_size();
    for (const rebuild_member& m : rebuilding_) {
        if (m.disk == d) return last_stripe >= m.cursor;
    }
    return false;
}

void raid6_array::note_io(std::uint32_t d, io_kind kind, const io_result& r) {
    if (r.transient_seen > 0) {
        if (r.ok()) {
            stats_.transient_errors_masked.fetch_add(1,
                                                     std::memory_order_relaxed);
        } else if (r.status == io_status::transient_error) {
            stats_.retries_exhausted.fetch_add(1, std::memory_order_relaxed);
        }
    }
    if (health_.record(d, kind, r.status, r.transient_seen)) {
        // Threshold crossed: the disk is too sick to trust. Fail it now
        // (atomic; this may run on an aio worker thread) and let the next
        // foreground operation promote a spare.
        disks_[d]->fail();
        stats_.disks_tripped.fetch_add(1, std::memory_order_relaxed);
        obs::flight_recorder::instance().record(obs::fr_kind::disk_tripped,
                                                obs_.now_ns(), d);
        pending_failover_.store(true, std::memory_order_release);
    }
}

io_status raid6_array::disk_read(std::uint32_t d, std::size_t offset,
                                 std::span<std::byte> out) {
    // A promoted spare is blank above the rebuild cursor: its bytes are
    // not data, the column is (still) an erasure.
    if (rebuild_masked(d, offset, out.size())) return io_status::rebuilding;
    const io_result r = policy_.read(*disks_[d], offset, out);
    note_io(d, io_kind::read, r);
    return r.status;
}

io_status raid6_array::disk_write(std::uint32_t disk, std::size_t offset,
                                  std::span<const std::byte> in,
                                  const std::uint32_t* crcs) {
    // Fused writes hand over the checksums their producing traversal
    // already computed; everyone else pays one sweep of the buffer here.
    const auto update_region = [&] {
        if (crcs != nullptr) {
            regions_[disk].install(offset,
                                   {crcs, in.size() / integrity_block_});
        } else {
            regions_[disk].record(offset, in);
        }
        persist_checksums(disk, offset, in.size());
    };
    // Claim one unit of the power-loss budget atomically (aio worker-mode
    // writes may race here; the inline engine is single-threaded).
    std::uint64_t budget = write_budget_.load(std::memory_order_relaxed);
    do {
        if (budget == 0) {
            powered_.store(false, std::memory_order_relaxed);
            // The write's *intent* still reaches the battery-backed
            // metadata domain even though the bits never reach the medium
            // — recording the checksum is what makes the torn write
            // deterministically detectable (and torn-vs-corrupt
            // classifiable) on replay. The persisted superblock models the
            // same NVRAM domain, so the record-ahead checksum is flushed
            // there too — powered off or not.
            update_region();
            return io_status::ok;  // the host never learns; the bits are gone
        }
    } while (!write_budget_.compare_exchange_weak(budget, budget - 1,
                                                  std::memory_order_relaxed));
    const io_result r = policy_.write(*disks_[disk], offset, in);
    note_io(disk, io_kind::write, r);
    // A failed write never reaches the medium, so the old checksum stays
    // authoritative; only landed bytes update the region.
    if (r.status == io_status::ok) update_region();
    return r.status;
}

io_status raid6_array::verified_disk_read(std::uint32_t d, std::size_t offset,
                                          std::span<std::byte> out) {
    const io_status st = disk_read(d, offset, out);
    if (st != io_status::ok || !verify_reads_) return st;
    if (!regions_[d].verify(offset, out)) {
        stats_.checksum_mismatches.fetch_add(1, std::memory_order_relaxed);
        return io_status::checksum_mismatch;
    }
    return st;
}

// ---- fail-slow tolerance ---------------------------------------------

io_status raid6_array::disk_read_deferred(std::uint32_t d, std::size_t offset,
                                          std::span<std::byte> out,
                                          std::uint64_t& latency_us) {
    latency_us = 0;
    if (rebuild_masked(d, offset, out.size())) return io_status::rebuilding;
    const io_result r =
        policy_.read(*disks_[d], offset, out, /*defer_time_charge=*/true);
    note_io(d, io_kind::read, r);
    latency_us = r.latency_us;
    return r.status;
}

bool raid6_array::reconstruct_column_range(std::size_t stripe,
                                           std::uint32_t col,
                                           std::size_t strip_lo,
                                           std::span<std::byte> dst) {
    LIBERATION_EXPECTS(strip_lo + dst.size() <= map_.strip_size());
    codes::stripe_buffer buf = make_stripe_buffer();
    const codes::stripe_view v = buf.view();
    // The read-set goes through the aio engine so per-disk batching and
    // read coalescing apply; requests execute through disk_read, so
    // retry/health/masking semantics are identical to any other read.
    const std::size_t base = aio_engine_->completions().size();
    for (std::uint32_t c = 0; c < map_.n(); ++c) {
        if (c == col) continue;
        const strip_location l = map_.locate(stripe, c);
        aio::io_desc d;
        d.disk = l.disk;
        d.kind = aio::op_kind::read;
        d.offset = l.offset;
        d.data = v.strip(c).data();
        d.len = map_.strip_size();
        d.user_data = c;
        d.flags = aio::flag_verify;
        aio_engine_->submit(d);
    }
    aio_engine_->drain();
    std::vector<std::uint32_t> erased{col};
    const std::vector<aio::io_cqe>& cqes = aio_engine_->completions();
    for (std::size_t i = base; i < cqes.size(); ++i) {
        if (cqes[i].status != io_status::ok) {
            erased.push_back(static_cast<std::uint32_t>(cqes[i].user_data));
        }
    }
    aio_engine_->clear_completions();
    if (erased.size() > 2) return false;
    std::sort(erased.begin(), erased.end());
    code_.decode(v, erased);
    const std::span<const std::byte> got(v.strip(col).data() + strip_lo,
                                         dst.size());
    // End-to-end gate: the reconstruction must match the *hedged-around*
    // column's own stored checksum before it is served in its place.
    const strip_location loc = map_.locate(stripe, col);
    if (verify_reads_ &&
        !regions_[loc.disk].verify(loc.offset + strip_lo, got)) {
        return false;
    }
    std::memcpy(dst.data(), got.data(), dst.size());
    return true;
}

io_status raid6_array::read_chunk_failslow(std::size_t stripe,
                                           std::uint32_t col,
                                           std::size_t strip_lo,
                                           std::span<std::byte> dst) {
    const strip_location loc = map_.locate(stripe, col);
    const std::uint32_t d = loc.disk;
    const std::size_t offset = loc.offset + strip_lo;

    // Quarantined disk: route around it via decode up front, except for
    // the periodic probe that checks whether the straggler recovered.
    if (latmon_.quarantined(d) && !latmon_.take_probe(d)) {
        stats_.slow_routed_reads.fetch_add(1, std::memory_order_relaxed);
        if (reconstruct_column_range(stripe, col, strip_lo, dst)) {
            return io_status::ok;
        }
        // A second failure in the stripe made the decode impossible; the
        // quarantined disk is slow, not dead — fall through and read it.
    }

    // Deferred-charge direct read: the policy reports the virtual cost
    // but does not advance the clock, so a hedged race can charge
    // whichever leg is actually served.
    std::uint64_t lat = 0;
    const io_status st = disk_read_deferred(d, offset, dst, lat);
    if (st != io_status::ok) {
        clock_.advance(lat);
        return st;  // the caller's existing degraded handling takes over
    }
    const std::uint64_t deadline = latmon_.deadline_us(d);
    const bool was_quarantined = latmon_.quarantined(d);
    if (latmon_.note_read(d, lat)) {
        stats_.slow_trips.fetch_add(1, std::memory_order_relaxed);
        obs::flight_recorder::instance().record(
            obs::fr_kind::disk_quarantined, obs_.now_ns(), d, lat);
        persist_membership();  // quarantine survives a remount
    } else if (was_quarantined && !latmon_.quarantined(d)) {
        stats_.slow_recoveries.fetch_add(1, std::memory_order_relaxed);
        obs::flight_recorder::instance().record(
            obs::fr_kind::quarantine_lifted, obs_.now_ns(), d, lat);
        persist_membership();
    }

    if (lat <= deadline) {
        clock_.advance(lat);
        if (verify_reads_ && !regions_[d].verify(offset, dst)) {
            stats_.checksum_mismatches.fetch_add(1, std::memory_order_relaxed);
            return io_status::checksum_mismatch;
        }
        return st;
    }

    // The read outlived its deadline: speculatively issue the
    // reconstruction read-set and take whichever leg completes first.
    // Timeline: the hedge is issued at `deadline` and costs `hedge_us`
    // (charged inline by the aio legs); the direct read lands at `lat`.
    stats_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    stats_.hedged_reads.fetch_add(1, std::memory_order_relaxed);
    obs::flight_recorder::instance().record(obs::fr_kind::hedge_issued,
                                            obs_.now_ns(), d, lat);
    latmon_.note_hedge(d);
    util::aligned_buffer rbuf(dst.size());
    const std::uint64_t h0 = clock_.now_us();
    const bool recon =
        reconstruct_column_range(stripe, col, strip_lo, rbuf.span());
    const std::uint64_t hedge_us = clock_.now_us() - h0;
    if (recon && deadline + hedge_us < lat) {
        stats_.hedge_wins.fetch_add(1, std::memory_order_relaxed);
        clock_.advance(deadline);  // hedge_us is already on the clock
        hist_hedge_delay_->record(hedge_us * 1000);
        std::memcpy(dst.data(), rbuf.data(), dst.size());
        return io_status::ok;
    }
    // The straggler still won the race (or the decode was unavailable):
    // serve the direct bytes. The hedge cost overlaps the tail of the
    // wait, so only the remainder of `lat` is still owed.
    clock_.advance(lat > hedge_us ? lat - hedge_us : 0);
    hist_hedge_delay_->record((lat - deadline) * 1000);
    if (verify_reads_ && !regions_[d].verify(offset, dst)) {
        stats_.checksum_mismatches.fetch_add(1, std::memory_order_relaxed);
        return io_status::checksum_mismatch;
    }
    return io_status::ok;
}

// ---- failover & background rebuild -----------------------------------

void raid6_array::fail_disk(std::uint32_t d) {
    disks_[d]->fail();
    handle_failed_disks();
    update_health_gauges();
    persist_membership();
}

void raid6_array::replace_disk(std::uint32_t d) {
    if (store_ && !store_->meta_slot(d)) {
        // The slot's file belonged to a foreign array (or never decoded);
        // the operator is installing blank hardware over it, so reclaim
        // the file for this array before the blank medium is mirrored.
        (void)store_->reinit_slot(d);
        attach_media_sink(d);
    }
    disks_[d]->replace();
    health_.reset(d);
    latmon_.reset(d);
    // The operator took over this slot; drop any background-rebuild claim.
    const auto it =
        std::find_if(rebuilding_.begin(), rebuilding_.end(),
                     [d](const rebuild_member& m) { return m.disk == d; });
    if (it != rebuilding_.end()) {
        rebuilding_.erase(it);
        if (rebuilding_.empty()) {
            rebuild_active_ = false;
            rebuild_stalled_ = false;
        }
    }
    update_health_gauges();
    persist_membership();
}

void raid6_array::handle_failed_disks() {
    pending_failover_.store(false, std::memory_order_relaxed);
    if (!auto_failover_) return;
    bool promoted = false;
    for (std::uint32_t d = 0; d < map_.n(); ++d) {
        if (disks_[d]->online() || spares_.empty()) continue;
        // Promote: the blank spare takes the dead disk's slot. Its column
        // is masked (io_status::rebuilding) until its watermark passes.
        disks_[d] = std::move(spares_.back());
        spares_.pop_back();
        health_.reset(d);
        latmon_.reset(d);
        stats_.spares_promoted.fetch_add(1, std::memory_order_relaxed);
        obs::flight_recorder::instance().record(obs::fr_kind::spare_promoted,
                                                obs_.now_ns(), d);
        if (store_ != nullptr) {
            // The slot's file keeps the dead disk's bytes: everything
            // above the new member's watermark is masked anyway, and the
            // rebuild rewrites it through the sink. A foreign slot must be
            // reclaimed before the new hardware writes into it.
            if (!store_->meta_slot(d)) (void)store_->reinit_slot(d);
            attach_media_sink(d);
        }
        promoted = true;
        const auto it =
            std::find_if(rebuilding_.begin(), rebuilding_.end(),
                         [d](const rebuild_member& m) { return m.disk == d; });
        if (it != rebuilding_.end()) {
            it->cursor = 0;  // fresh blank hardware in an already-claimed slot
        } else {
            // The new member starts from stripe 0 with its own watermark;
            // members already mid-rebuild keep theirs, so their rebuilt
            // (and write-maintained) extents stay trusted.
            rebuilding_.push_back({d, 0});
        }
        rebuild_active_ = true;
    }
    update_health_gauges();
    if (promoted) persist_membership();
}

void raid6_array::service_events() {
    if (pending_failover_.load(std::memory_order_acquire)) {
        handle_failed_disks();
    }
    if (rebuild_active_ && powered_ && !in_service_) {
        service_background_rebuild(rebuild_batch_stripes_);
    }
}

std::size_t raid6_array::service_background_rebuild(std::size_t max_stripes) {
    if (in_service_ || max_stripes == 0) return 0;
    if (pending_failover_.load(std::memory_order_acquire)) {
        handle_failed_disks();
    }
    if (!rebuild_active_ || !powered_) return 0;
    if (rebuilding_.empty()) {
        rebuild_active_ = false;
        return 0;
    }
    if (rebuilding_.size() > 2) {
        // > 2 concurrent losses: beyond RAID-6, operator's call. Surface
        // the stall (once per session) instead of silently masking the
        // columns forever; reads of them keep failing loudly meanwhile.
        if (!rebuild_stalled_) {
            rebuild_stalled_ = true;
            stats_.rebuild_sessions_stalled.fetch_add(
                1, std::memory_order_relaxed);
        }
        return 0;
    }
    rebuild_stalled_ = false;
    in_service_ = true;
    // Advance the furthest-behind member(s) together, stopping at the next
    // member's watermark so each disk's cursor only ever moves forward.
    std::size_t first = rebuilding_.front().cursor;
    for (const rebuild_member& m : rebuilding_) {
        first = std::min(first, m.cursor);
    }
    std::size_t last = std::min(map_.stripes(), first + max_stripes);
    std::vector<std::uint32_t> group;
    for (const rebuild_member& m : rebuilding_) {
        if (m.cursor == first) {
            group.push_back(m.disk);
        } else {
            last = std::min(last, m.cursor);
        }
    }
    rebuild_result res;
    {
        // Trace-only span for the batch; the per-window latency histogram
        // (raid_rebuild_window_ns) records inside rebuild_stripe_range, so
        // operator-driven rebuilds feed the same family.
        obs::timed_span span(obs_, nullptr, "raid.rebuild_batch", "rebuild");
        res = rebuild_stripe_range(*this, group, first, last);
    }
    std::size_t processed = 0;
    if (powered_) {
        // (If power died mid-batch the writes were dropped — keep the
        // watermarks so the batch reruns after reboot; decode is
        // idempotent.)
        processed = last - first;
        stats_.rebuild_stripes_failed.fetch_add(res.stripes_failed,
                                                std::memory_order_relaxed);
        for (rebuild_member& m : rebuilding_) {
            if (m.cursor == first) m.cursor = last;
        }
        bool completed = false;
        for (auto it = rebuilding_.begin(); it != rebuilding_.end();) {
            if (it->cursor >= map_.stripes()) {
                obs::flight_recorder::instance().record(
                    obs::fr_kind::rebuild_completed, obs_.now_ns(), it->disk);
                it = rebuilding_.erase(it);
                stats_.rebuilds_completed.fetch_add(1,
                                                    std::memory_order_relaxed);
                completed = true;
            } else {
                ++it;
            }
        }
        if (rebuilding_.empty()) rebuild_active_ = false;
        // Persist the advanced watermarks so a kill mid-rebuild resumes
        // from here instead of stripe 0; a finished member is a membership
        // change (its slot state flips back to active).
        if (completed) {
            persist_membership();
        } else if (processed > 0) {
            persist_watermarks();
        }
    }
    in_service_ = false;
    // A survivor may have tripped during the batch.
    if (pending_failover_.load(std::memory_order_acquire)) {
        handle_failed_disks();
    }
    update_health_gauges();
    return processed;
}

void raid6_array::drain_background_rebuild() {
    // A health trip may still be waiting for its promotion.
    if (pending_failover_.load(std::memory_order_acquire)) {
        handle_failed_disks();
    }
    while (rebuild_active_ && powered_) {
        if (service_background_rebuild(map_.stripes()) == 0) break;
    }
}

// ---- stripe-granular interface ---------------------------------------

bool raid6_array::load_stripe(std::size_t stripe, const codes::stripe_view& dst,
                              std::vector<std::uint32_t>& erased,
                              std::vector<io_status>* statuses) {
    erased.clear();
    if (statuses != nullptr) statuses->assign(map_.n(), io_status::ok);
    // The column read-set goes through the aio engine (same shape as
    // reconstruct_column_range): per-disk batching and merging apply, the
    // requests execute through disk_read so retry/health/masking semantics
    // are unchanged, and a host op's degraded load shows up as aio
    // fragments inside its causal trace tree. No flag_verify — checksum
    // policy stays with the caller (verify_loaded_stripe decides which
    // strips to trust).
    const std::size_t base = aio_engine_->completions().size();
    for (std::uint32_t col = 0; col < map_.n(); ++col) {
        const strip_location loc = map_.locate(stripe, col);
        aio::io_desc d;
        d.disk = loc.disk;
        d.kind = aio::op_kind::read;
        d.offset = loc.offset;
        d.data = dst.strip(col).data();
        d.len = map_.strip_size();
        d.user_data = col;
        aio_engine_->submit(d);
    }
    aio_engine_->drain();
    const std::vector<aio::io_cqe>& cqes = aio_engine_->completions();
    for (std::size_t i = base; i < cqes.size(); ++i) {
        const auto col = static_cast<std::uint32_t>(cqes[i].user_data);
        if (statuses != nullptr) (*statuses)[col] = cqes[i].status;
        if (cqes[i].status != io_status::ok) erased.push_back(col);
    }
    aio_engine_->clear_completions();
    std::sort(erased.begin(), erased.end());
    return erased.size() <= 2;
}

bool raid6_array::store_columns(std::size_t stripe,
                                const codes::stripe_view& src,
                                std::span<const std::uint32_t> cols,
                                const std::uint32_t* const* col_crcs) {
    bool all_ok = true;
    for (const std::uint32_t col : cols) {
        const strip_location loc = map_.locate(stripe, col);
        const std::uint32_t* crcs =
            col_crcs != nullptr ? col_crcs[col] : nullptr;
        if (disk_write(loc.disk, loc.offset, src.strip(col), crcs) !=
            io_status::ok) {
            all_ok = false;
        }
    }
    return all_ok;
}

raid6_array::stripe_recovery raid6_array::load_stripe_verified(
    std::size_t stripe, const codes::stripe_view& buf, bool writeback,
    std::span<const std::uint32_t> extra_erasures, bool trust_parity) {
    std::vector<std::uint32_t> erased;
    std::vector<io_status> statuses;
    (void)load_stripe(stripe, buf, erased, &statuses);
    return verify_loaded_stripe(stripe, buf, writeback, extra_erasures,
                                trust_parity, std::move(statuses));
}

raid6_array::stripe_recovery raid6_array::verify_loaded_stripe(
    std::size_t stripe, const codes::stripe_view& buf, bool writeback,
    std::span<const std::uint32_t> extra_erasures, bool trust_parity,
    std::vector<io_status> statuses) {
    LIBERATION_EXPECTS(statuses.size() == map_.n());
    stripe_recovery rec;
    rec.statuses = std::move(statuses);
    for (std::uint32_t col = 0; col < map_.n(); ++col) {
        if (rec.statuses[col] != io_status::ok) rec.erased.push_back(col);
    }
    const bool loadable = rec.erased.size() <= 2;
    for (const std::uint32_t col : extra_erasures) {
        if (std::find(rec.erased.begin(), rec.erased.end(), col) ==
            rec.erased.end()) {
            rec.erased.push_back(col);
        }
    }
    std::sort(rec.erased.begin(), rec.erased.end());
    if (!loadable || rec.erased.size() > 2) return rec;
    rec.verified = true;

    const auto is_erased = [&](std::uint32_t col) {
        return std::binary_search(rec.erased.begin(), rec.erased.end(), col);
    };
    const std::uint32_t pc = code_.p_column();
    const std::uint32_t qc = code_.q_column();

    // Every verification below captures the words its fused sweep
    // computed: a column that is later written back (heal, rebuild
    // commit) hands them to the store instead of being traversed again.
    const std::size_t bps = map_.strip_size() / integrity_block_;
    rec.crcs.resize(static_cast<std::size_t>(map_.n()) * bps);
    rec.crc_valid.assign(map_.n(), 0);
    const auto col_crc = [&](std::uint32_t col) {
        return rec.crcs.data() + static_cast<std::size_t>(col) * bps;
    };
    // store_columns-shaped pointer table over the captured words; entries
    // are published only once the words describe the column's *current*
    // bytes (a decode can invalidate a capture).
    std::vector<const std::uint32_t*> crc_ptrs(map_.n(), nullptr);
    const auto publish_crc = [&](std::uint32_t col) {
        rec.crc_valid[col] = 1;
        crc_ptrs[col] = col_crc(col);
    };

    // Checksum-first classification: every available column whose bytes
    // fail their stored CRC is a suspect, with no single-corruption
    // assumption and no dependence on parity agreeing with anything.
    std::vector<std::uint32_t> crc_bad;
    for (std::uint32_t col = 0; col < map_.n(); ++col) {
        if (is_erased(col)) continue;
        const strip_location loc = map_.locate(stripe, col);
        if (!regions_[loc.disk].verify_capture(loc.offset, buf.strip(col),
                                               col_crc(col))) {
            crc_bad.push_back(col);
            rec.statuses[col] = io_status::checksum_mismatch;
        } else {
            publish_crc(col);
        }
    }
    if (!crc_bad.empty()) {
        stats_.checksum_mismatches.fetch_add(crc_bad.size(),
                                             std::memory_order_relaxed);
    }

    if (!trust_parity) {
        // Torn-stripe fallback: parity may disagree with data, so no data
        // column may be reconstructed from it. The caller re-encodes both
        // parities from data, which resolves parity-side suspects anyway.
        for (const std::uint32_t col : rec.erased) {
            if (col != pc && col != qc) return rec;
        }
        for (const std::uint32_t col : crc_bad) {
            if (col != pc && col != qc) return rec;
        }
        rec.ok = true;
        return rec;
    }

    if (rec.erased.size() + crc_bad.size() <= 2) {
        // Within the decode budget: treat the corrupt columns as erasures,
        // reconstruct everything in one optimal decode, then let the
        // checksums arbitrate who was really damaged.
        std::vector<std::uint32_t> suspects = rec.erased;
        suspects.insert(suspects.end(), crc_bad.begin(), crc_bad.end());
        std::sort(suspects.begin(), suspects.end());

        // Snapshot the raw bytes of the checksum-suspect columns so the
        // decode result can be compared against what was actually on disk.
        std::vector<std::vector<std::byte>> raw;
        raw.reserve(crc_bad.size());
        for (const std::uint32_t col : crc_bad) {
            const std::span<const std::byte> s = buf.strip(col);
            raw.emplace_back(s.begin(), s.end());
        }
        if (!suspects.empty()) code_.decode(buf, suspects);

        for (std::size_t i = 0; i < crc_bad.size(); ++i) {
            const std::uint32_t col = crc_bad[i];
            const strip_location loc = map_.locate(stripe, col);
            if (std::equal(raw[i].begin(), raw[i].end(),
                           buf.strip(col).begin())) {
                // Parity reproduced the on-disk bytes exactly: the data
                // was fine all along and the *stored checksum* is the
                // damaged side. Refresh the metadata from the words the
                // classification sweep computed over these very bytes.
                regions_[loc.disk].install(loc.offset, {col_crc(col), bps});
                publish_crc(col);
                rec.meta_repaired.push_back(col);
                stats_.checksum_metadata_repaired.fetch_add(
                    1, std::memory_order_relaxed);
                continue;
            }
            // Real corruption: the decode recovered different bytes.
            // Re-verify the reconstruction; if the stored checksum rejects
            // even the parity-backed truth, data *and* metadata were both
            // hit — the decode (computed from verified inputs) wins and
            // the metadata is refreshed too.
            if (!regions_[loc.disk].verify_capture(loc.offset, buf.strip(col),
                                                   col_crc(col))) {
                regions_[loc.disk].install(loc.offset, {col_crc(col), bps});
                stats_.checksum_metadata_repaired.fetch_add(
                    1, std::memory_order_relaxed);
            }
            publish_crc(col);
            rec.healed.push_back(col);
            if (writeback) {
                const std::uint32_t one[] = {col};
                store_columns(stripe, buf, one, crc_ptrs.data());
            }
        }
        for (const std::uint32_t col : rec.erased) {
            // Verify every reconstructed column before anyone trusts it.
            // All decode inputs verified, so a mismatch here means the
            // stored checksum is stale (e.g. corrupted metadata or a
            // blank replacement disk's region) — refresh it.
            const strip_location loc = map_.locate(stripe, col);
            if (!regions_[loc.disk].verify_capture(loc.offset, buf.strip(col),
                                                   col_crc(col))) {
                regions_[loc.disk].install(loc.offset, {col_crc(col), bps});
                rec.meta_repaired.push_back(col);
                stats_.checksum_metadata_repaired.fetch_add(
                    1, std::memory_order_relaxed);
            }
            publish_crc(col);
            if (writeback &&
                rec.statuses[col] == io_status::unreadable_sector) {
                // Heal-on-read of latent sector errors, as load_and_decode
                // always did.
                stats_.media_errors_recovered.fetch_add(
                    1, std::memory_order_relaxed);
                const std::uint32_t one[] = {col};
                store_columns(stripe, buf, one, crc_ptrs.data());
            }
        }
        rec.ok = true;
        return rec;
    }

    // More checksum suspects than the two-erasure decode budget (plus any
    // true erasures). Before declaring data loss, consider that the
    // *metadata* may be the damaged side: decode only the true erasures
    // and cross-check parity against data. If the codeword is consistent,
    // the bytes on disk are mutually corroborated by both parities and
    // every "suspect" checksum is stale — refresh them all.
    if (!rec.erased.empty()) code_.decode(buf, rec.erased);
    if (core::stripe_consistent(buf, code_.geom())) {
        for (const std::uint32_t col : crc_bad) {
            // Only true erasures were decoded, so these bytes are still
            // the ones the classification sweep captured words for.
            const strip_location loc = map_.locate(stripe, col);
            regions_[loc.disk].install(loc.offset, {col_crc(col), bps});
            publish_crc(col);
            rec.meta_repaired.push_back(col);
            rec.statuses[col] = io_status::ok;
            stats_.checksum_metadata_repaired.fetch_add(
                1, std::memory_order_relaxed);
        }
        for (const std::uint32_t col : rec.erased) {
            const strip_location loc = map_.locate(stripe, col);
            if (!regions_[loc.disk].verify_capture(loc.offset, buf.strip(col),
                                                   col_crc(col))) {
                regions_[loc.disk].install(loc.offset, {col_crc(col), bps});
                rec.meta_repaired.push_back(col);
                stats_.checksum_metadata_repaired.fetch_add(
                    1, std::memory_order_relaxed);
            }
            publish_crc(col);
        }
        rec.ok = true;
    }
    return rec;
}

bool raid6_array::journal_mark(std::size_t stripe, std::uint64_t cols) {
    // A dead host issues no writes that could tear anything.
    if (!powered_) return true;
    if (!journal_.mark(stripe, cols)) {
        // Log full: proceeding unjournaled would be a silent write hole
        // waiting for a crash — refuse the write loudly instead.
        stats_.writes_rejected_log_full.fetch_add(1,
                                                  std::memory_order_relaxed);
        return false;
    }
    gauge_journal_->set(static_cast<std::int64_t>(journal_.size()));
    obs::flight_recorder::instance().record(obs::fr_kind::intent_mark,
                                            obs_.now_ns(), 0, stripe);
    // On-disk analogue of the NVRAM flush: the entry must be durable on
    // the other members before any data write of this stripe is issued.
    persist_intent();
    return true;
}

void raid6_array::journal_clear(std::size_t stripe) {
    // A dead host cannot clear its NVRAM word — the whole point.
    if (powered_) {
        journal_.clear(stripe);
        gauge_journal_->set(static_cast<std::int64_t>(journal_.size()));
        persist_intent();
    }
}

// ---- persistence hooks -----------------------------------------------

void raid6_array::attach_persistence(std::unique_ptr<persist::store> st) {
    LIBERATION_EXPECTS(st != nullptr && st->slot_count() == map_.n());
    store_ = std::move(st);
    for (std::uint32_t d = 0; d < map_.n(); ++d) {
        if (store_->meta_slot(d)) attach_media_sink(d);
    }
}

void raid6_array::attach_media_sink(std::uint32_t d) {
    // Raw pointer capture: the store outlives every sink (unmount and the
    // destructor detach sinks before releasing it).
    persist::store* st = store_.get();
    disks_[d]->attach_media_sink(
        [st, d](std::size_t offset, std::span<const std::byte> bytes) {
            (void)st->write_data(d, offset, bytes);
        });
}

void raid6_array::persist_intent() {
    if (!store_) return;
    std::vector<persist::superblock::intent_entry> ents;
    for (const intent_log::entry& e : journal_.entries()) {
        ents.push_back({e.stripe, e.columns, e.seq});
    }
    for (std::uint32_t s = 0; s < map_.n(); ++s) {
        if (!store_->meta_slot(s) || !store_->slot_ok(s)) continue;
        store_->image(s).intents = ents;
        (void)store_->persist(s);
    }
}

void raid6_array::persist_checksums(std::uint32_t disk, std::size_t offset,
                                    std::size_t len) {
    if (!store_ || !store_->meta_slot(disk) || !store_->slot_ok(disk)) return;
    persist::superblock& img = store_->image(disk);
    const std::span<const std::uint32_t> crcs = regions_[disk].checksums();
    if (img.crcs.size() != crcs.size()) {
        img.crcs.assign(crcs.begin(), crcs.end());
    } else {
        const std::size_t b0 = offset / integrity_block_;
        const std::size_t b1 =
            (offset + len + integrity_block_ - 1) / integrity_block_;
        std::copy(crcs.begin() + static_cast<std::ptrdiff_t>(b0),
                  crcs.begin() + static_cast<std::ptrdiff_t>(b1),
                  img.crcs.begin() + static_cast<std::ptrdiff_t>(b0));
    }
    (void)store_->persist(disk);
}

void raid6_array::persist_membership() {
    if (!store_) return;
    const std::uint32_t n = map_.n();
    std::vector<std::uint8_t> states(
        n, static_cast<std::uint8_t>(persist::slot_state::active));
    std::vector<std::uint64_t> marks(n, map_.stripes());
    for (std::uint32_t d = 0; d < n; ++d) {
        if (!disks_[d]->online()) {
            states[d] = static_cast<std::uint8_t>(persist::slot_state::failed);
        } else if (latmon_.quarantined(d)) {
            // Quarantine survives a remount: lateness is not corruption,
            // so the base state stays active with the slow bit OR-ed on.
            states[d] |= persist::slot_state_slow_bit;
        }
    }
    for (const rebuild_member& m : rebuilding_) {
        states[m.disk] =
            static_cast<std::uint8_t>(persist::slot_state::rebuilding);
        marks[m.disk] = m.cursor;
    }
    // One shared epoch across the replicated copies: members that miss
    // this update (failed/foreign slots) fall behind and are kicked as
    // stale by the next mount.
    std::uint64_t events = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
        if (store_->meta_slot(s)) {
            events = std::max(events, store_->image(s).events);
        }
    }
    ++events;
    for (std::uint32_t s = 0; s < n; ++s) {
        if (!store_->meta_slot(s) || !store_->slot_ok(s)) continue;
        persist::superblock& img = store_->image(s);
        img.slot_states = states;
        img.watermarks = marks;
        img.spares_available = static_cast<std::uint32_t>(spares_.size());
        img.next_disk_id = next_disk_id_;
        img.disk_id = disks_[s]->id();
        img.events = events;
        (void)store_->persist(s);
    }
}

void raid6_array::persist_watermarks() {
    if (!store_) return;
    for (std::uint32_t s = 0; s < map_.n(); ++s) {
        if (!store_->meta_slot(s) || !store_->slot_ok(s)) continue;
        persist::superblock& img = store_->image(s);
        for (const rebuild_member& m : rebuilding_) {
            img.watermarks[m.disk] = m.cursor;
        }
        (void)store_->persist(s);
    }
}

bool raid6_array::unmount() {
    if (!store_) return true;
    // Refresh every replicated table, then stamp the images clean (only
    // if no hazard is still journaled) and flush. The two persists per
    // slot are deliberate: membership/intent refresh first, then the
    // clean stamp — a crash between them is indistinguishable from a
    // crash just before unmount, which mount handles anyway.
    persist_membership();
    persist_intent();
    const bool clean = journal_.size() == 0;
    bool ok = true;
    for (std::uint32_t s = 0; s < map_.n(); ++s) {
        if (!store_->meta_slot(s) || !store_->slot_ok(s)) continue;
        persist::superblock& img = store_->image(s);
        // Wholesale checksum refresh: scrub/read-repair may have updated
        // words without a disk_write hook firing.
        const std::span<const std::uint32_t> crcs = regions_[s].checksums();
        img.crcs.assign(crcs.begin(), crcs.end());
        img.clean = clean;
        if (!store_->persist(s)) ok = false;
    }
    if (!store_->flush_all()) ok = false;
    for (auto& d : disks_) d->detach_media_sink();
    store_.reset();
    return ok;
}

std::size_t raid6_array::resilver() {
    std::size_t healed = 0;
    codes::stripe_buffer buf = make_stripe_buffer();
    for (std::size_t s = 0; s < map_.stripes(); ++s) {
        const auto before =
            stats_.media_errors_recovered.load(std::memory_order_relaxed);
        if (!load_and_decode(s, buf.view())) continue;  // > 2 unavailable
        healed += stats_.media_errors_recovered.load(std::memory_order_relaxed) -
                  before;
    }
    return healed;
}

std::size_t raid6_array::recover_write_hole() {
    LIBERATION_EXPECTS(powered_);
    std::size_t resynced = 0;
    codes::stripe_buffer buf = make_stripe_buffer();
    for (const std::size_t s : journal_.dirty_stripes()) {
        if (resync_journaled_stripe(s, buf.view())) ++resynced;
    }
    return resynced;
}

bool raid6_array::resync_journaled_stripe(std::size_t stripe,
                                          const codes::stripe_view& buf) {
    std::vector<std::uint32_t> erased;
    if (!load_stripe(stripe, buf, erased) || !erased.empty()) {
        return false;  // degraded: leave journaled for later
    }
    const std::uint32_t pc = code_.p_column();
    const std::uint32_t qc = code_.q_column();
    const std::uint64_t mask = journal_.columns(stripe);
    // Classify every data column whose bytes fail their stored checksum.
    // A column *targeted* by the in-flight update is torn: the mismatch is
    // the half-landed update itself, the on-disk bytes win and the
    // checksum is refreshed (record-ahead on dropped writes makes this
    // deterministic). An *untargeted* column was never meant to change —
    // its old checksum is authoritative and the mismatch is silent
    // corruption that struck while the stripe was torn; recover it via
    // checksum-guided candidate decode or leave the stripe journaled.
    // Parity columns need no classification: re-encoding from data below
    // resolves any parity tear or corruption either way.
    for (std::uint32_t col = 0; col < map_.n(); ++col) {
        if (col == pc || col == qc) continue;
        const strip_location loc = map_.locate(stripe, col);
        if (regions_[loc.disk].verify(loc.offset, buf.strip(col))) continue;
        stats_.checksum_mismatches.fetch_add(1, std::memory_order_relaxed);
        if ((mask >> col) & 1) {
            regions_[loc.disk].record(loc.offset, buf.strip(col));
        } else if (!heal_journaled_column(stripe, buf, col)) {
            return false;
        }
    }
    // Data is the source of truth; rebuild both parity columns.
    code_.encode(buf);
    const std::uint32_t parity_cols[] = {pc, qc};
    if (!store_columns(stripe, buf, parity_cols) || !powered_) return false;
    journal_clear(stripe);
    return true;
}

bool raid6_array::heal_journaled_column(std::size_t stripe,
                                        const codes::stripe_view& buf,
                                        std::uint32_t col) {
    const std::uint32_t pc = code_.p_column();
    const std::uint32_t qc = code_.q_column();
    const strip_location loc = map_.locate(stripe, col);
    codes::stripe_buffer tmp = make_stripe_buffer();
    // Parity may itself be torn, so try each subset that still has enough
    // intact parity to reconstruct the column ({c}: both parities fine,
    // {c,P}: P torn, {c,Q}: Q torn) and accept the first candidate the
    // stored checksum vouches for. A false match is a CRC32C collision on
    // an element-sized block — negligible against the faults modeled here.
    const std::vector<std::vector<std::uint32_t>> candidates = {
        {col}, {col, pc}, {col, qc}};
    for (const std::vector<std::uint32_t>& erased : candidates) {
        codes::copy_stripe(tmp.view(), buf);
        code_.decode(tmp.view(), erased);
        if (!regions_[loc.disk].verify(loc.offset, tmp.view().strip(col))) {
            continue;
        }
        std::memcpy(buf.strip(col).data(), tmp.view().strip(col).data(),
                    map_.strip_size());
        const std::uint32_t one[] = {col};
        return store_columns(stripe, buf, one);
    }
    return false;
}

bool raid6_array::load_and_decode(std::size_t stripe,
                                  const codes::stripe_view& buf) {
    // Trace-only: degraded full-stripe decodes show up as distinct spans
    // inside the surrounding raid.read / raid.write_small span.
    obs::timed_span span(obs_, nullptr, "raid.degraded_read");
    if (verify_reads_ && !journal_.is_dirty(stripe)) {
        // Verified read: checksum mismatches demote columns to erasures,
        // the optimal decoder reconstructs them, reconstructions are
        // re-verified, and repairs are written back (read-repair). Torn
        // stripes are excluded — their mismatches are half-landed updates,
        // not corruption, and resync owns that classification.
        const stripe_recovery rec =
            load_stripe_verified(stripe, buf, /*writeback=*/true);
        if (!rec.ok) return false;
        if (!rec.erased.empty()) {
            stats_.degraded_stripe_reads.fetch_add(1,
                                                   std::memory_order_relaxed);
        }
        if (!rec.healed.empty()) {
            stats_.reads_self_healed.fetch_add(1, std::memory_order_relaxed);
        }
        return true;
    }
    std::vector<std::uint32_t> erased;
    std::vector<io_status> statuses;
    if (!load_stripe(stripe, buf, erased, &statuses)) return false;
    if (erased.empty()) return true;
    code_.decode(buf, erased);
    stats_.degraded_stripe_reads.fetch_add(1, std::memory_order_relaxed);
    // Heal-on-read: a column that was unreadable on an *online* disk is a
    // latent sector error. Rewrite the reconstructed strip so the medium
    // remaps it (md's read-error rewrite) — otherwise the bad sector lies
    // in wait and turns the next double failure into a triple. Columns
    // erased for other reasons need no heal: transient errors left the
    // data intact, and rebuilding columns are the background session's job.
    for (const std::uint32_t col : erased) {
        if (statuses[col] != io_status::unreadable_sector) continue;
        stats_.media_errors_recovered.fetch_add(1, std::memory_order_relaxed);
        const std::uint32_t one[] = {col};
        store_columns(stripe, buf, one);
    }
    return true;
}

bool raid6_array::read_element_degraded(std::size_t stripe, std::uint32_t row,
                                        std::uint32_t col,
                                        std::span<std::byte> out) {
    const std::size_t elem = map_.element_size();
    LIBERATION_EXPECTS(out.size() == elem && col < map_.k());
    util::aligned_buffer acc(elem), tmp(elem);

    const auto read_elem = [&](std::uint32_t c, std::uint32_t r,
                               std::span<std::byte> dst) {
        const strip_location loc = map_.locate(stripe, c);
        // Verified: XOR-ing a silently corrupt survivor into the
        // reconstruction would *manufacture* corruption in a column that
        // was merely erased.
        return verified_disk_read(
                   loc.disk, loc.offset + static_cast<std::size_t>(r) * elem,
                   dst) == io_status::ok;
    };

    if (!read_elem(code_.p_column(), row, acc.span())) return false;
    for (std::uint32_t j = 0; j < map_.k(); ++j) {
        if (j == col) continue;
        if (!read_elem(j, row, tmp.span())) return false;
        xorops::xor_into(acc.data(), tmp.data(), elem);
    }
    if (verify_reads_) {
        // End-to-end check: the reconstructed element must match the
        // *erased* column's own stored checksum before it is served. A
        // mismatch (e.g. the target's metadata is itself damaged) falls
        // back to the full-stripe path, whose classification can repair
        // the metadata.
        const strip_location loc = map_.locate(stripe, col);
        if (!regions_[loc.disk].verify(
                loc.offset + static_cast<std::size_t>(row) * elem,
                acc.span())) {
            return false;
        }
    }
    std::memcpy(out.data(), acc.data(), elem);
    stats_.degraded_element_reads.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void raid6_array::note_unrecoverable_read(std::size_t stripe) {
    const std::uint64_t prev =
        stats_.reads_unrecoverable.fetch_add(1, std::memory_order_relaxed);
    obs::flight_recorder::instance().record(obs::fr_kind::read_unrecoverable,
                                            obs_.now_ns(), 0, stripe);
    if (prev == 0) {
        // First data-loss surface of this array: capture the evidence
        // while it is fresh.
        (void)obs::auto_postmortem("reads_unrecoverable", &obs_);
    }
}

bool raid6_array::read(std::size_t addr, std::span<std::byte> out) {
    LIBERATION_EXPECTS(addr + out.size() <= capacity());
    service_events();
    // Timed after service_events: the rebuild batch a host op services is
    // accounted to the rebuild-window family, not to read latency.
    obs::timed_span span(obs_, hist_read_, "raid.read");
    // Verify-on-read widens unaligned chunks to whole checksum blocks, so
    // the fast path stages them through a strip-sized scratch buffer.
    // Page-aligned: a file-backed disk fills it straight from the page
    // cache, and a 64-byte-aligned buffer's page offset (set by whatever
    // the heap served before) measurably slowed that copy in some layouts.
    util::aligned_buffer vbuf(verify_reads_ ? map_.strip_size() : 0, 4096);
    std::size_t done = 0;
    while (done < out.size()) {
        const std::size_t a = addr + done;
        const std::size_t stripe = a / map_.stripe_data_size();
        const std::size_t in_stripe = a % map_.stripe_data_size();
        const std::size_t span_len = std::min(
            out.size() - done, map_.stripe_data_size() - in_stripe);

        // Fast path: per-column direct reads.
        bool degraded = false;
        std::size_t off = in_stripe;
        std::size_t copied = 0;
        while (copied < span_len && !degraded) {
            const auto col = static_cast<std::uint32_t>(off / map_.strip_size());
            const std::size_t in_strip = off % map_.strip_size();
            const std::size_t chunk =
                std::min(span_len - copied, map_.strip_size() - in_strip);
            const strip_location loc = map_.locate(stripe, col);
            io_status st;
            if (verify_reads_) {
                const std::size_t lo = in_strip - in_strip % integrity_block_;
                const std::size_t hi =
                    (in_strip + chunk + integrity_block_ - 1) /
                    integrity_block_ * integrity_block_;
                const std::span<std::byte> w(vbuf.data(), hi - lo);
                st = latmon_.enabled()
                         ? read_chunk_failslow(stripe, col, lo, w)
                         : verified_disk_read(loc.disk, loc.offset + lo, w);
                if (st == io_status::ok) {
                    std::memcpy(out.data() + done + copied,
                                vbuf.data() + (in_strip - lo), chunk);
                }
            } else {
                const std::span<std::byte> w =
                    out.subspan(done + copied, chunk);
                st = latmon_.enabled()
                         ? read_chunk_failslow(stripe, col, in_strip, w)
                         : disk_read(loc.disk, loc.offset + in_strip, w);
            }
            if (st != io_status::ok) {
                degraded = true;
                break;
            }
            copied += chunk;
            off += chunk;
        }

        if (degraded) {
            // Small reads: recover just the touched elements via row
            // parity (k element reads each) before paying a full-stripe
            // decode. Falls back when a second column is unavailable.
            bool element_path = span_len <= 2 * map_.element_size();
            if (element_path) {
                util::aligned_buffer ebuf(map_.element_size());
                for (std::size_t i = 0; i < span_len && element_path;) {
                    const std::size_t o = in_stripe + i;
                    const auto col =
                        static_cast<std::uint32_t>(o / map_.strip_size());
                    const std::size_t in_strip = o % map_.strip_size();
                    const auto row = static_cast<std::uint32_t>(
                        in_strip / map_.element_size());
                    const std::size_t in_elem =
                        in_strip % map_.element_size();
                    const std::size_t chunk = std::min(
                        span_len - i, map_.element_size() - in_elem);
                    const strip_location loc = map_.locate(stripe, col);
                    const std::size_t elem_off =
                        loc.offset +
                        static_cast<std::size_t>(row) * map_.element_size();
                    const io_status est =
                        verified_disk_read(loc.disk, elem_off, ebuf.span());
                    if (est != io_status::ok) {
                        if (!read_element_degraded(stripe, row, col,
                                                   ebuf.span())) {
                            element_path = false;
                            break;
                        }
                        if (est == io_status::checksum_mismatch &&
                            disk_write(loc.disk, elem_off, ebuf.span()) ==
                                io_status::ok) {
                            // Element-granular read-repair: the verified
                            // reconstruction overwrites the rot instead of
                            // leaving it in wait for the next failure.
                            stats_.reads_self_healed.fetch_add(
                                1, std::memory_order_relaxed);
                        }
                    }
                    std::memcpy(out.data() + done + i, ebuf.data() + in_elem,
                                chunk);
                    i += chunk;
                }
            }
            if (!element_path) {
                codes::stripe_buffer buf = make_stripe_buffer();
                if (!load_and_decode(stripe, buf.view())) {
                    if (verify_reads_) {
                        note_unrecoverable_read(stripe);
                    }
                    return false;
                }
                // Gather the requested bytes from the rebuilt stripe.
                for (std::size_t i = 0; i < span_len;) {
                    const std::size_t o = in_stripe + i;
                    const auto col =
                        static_cast<std::uint32_t>(o / map_.strip_size());
                    const std::size_t in_strip = o % map_.strip_size();
                    const std::size_t chunk =
                        std::min(span_len - i, map_.strip_size() - in_strip);
                    std::memcpy(out.data() + done + i,
                                buf.view().strip(col).data() + in_strip,
                                chunk);
                    i += chunk;
                }
            }
        }
        done += span_len;
    }
    return true;
}

bool raid6_array::write(std::size_t addr, std::span<const std::byte> in) {
    LIBERATION_EXPECTS(addr + in.size() <= capacity());
    service_events();
    std::size_t done = 0;
    while (done < in.size()) {
        const std::size_t a = addr + done;
        const std::size_t stripe = a / map_.stripe_data_size();
        const std::size_t in_stripe = a % map_.stripe_data_size();
        const std::size_t span_len =
            std::min(in.size() - done, map_.stripe_data_size() - in_stripe);

        bool ok;
        std::size_t advance = span_len;
        if (in_stripe == 0 && span_len == map_.stripe_data_size()) {
            // A run of one or more consecutive full stripes goes through
            // the async pipeline: all k+2 column writes of every stripe in
            // the window are in flight together, and parity of stripe i+1
            // is computed while stripe i's columns are still landing.
            const std::size_t run =
                (in.size() - done) / map_.stripe_data_size();
            advance = run * map_.stripe_data_size();
            ok = write_full_stripes(stripe, run, in.subspan(done, advance));
        } else {
            ok = write_partial(stripe, in_stripe, in.subspan(done, span_len));
        }
        // Power died during this stripe's update: nothing further lands,
        // the host never observes the result, and the journal owns any
        // tear. Reporting failure would be a verdict nobody is alive to
        // hear — the seed's "the host never learns" semantics.
        if (!powered_) return true;
        if (!ok) return false;
        done += advance;
    }
    return true;
}

bool raid6_array::write_full_stripes(std::size_t first, std::size_t count,
                                     std::span<const std::byte> in) {
    // One span/sample for the whole pipelined run (it is one host op);
    // per-request latencies live in the aio_* stage histograms.
    obs::timed_span span(obs_, hist_write_full_, "raid.write_full_stripes");
    // Checksum-staging mode: data CRCs ride the staging pass, parity CRCs
    // the fused encode below, and every submission carries its words for
    // the integrity layer to install on completion. Staging is sized to
    // the run, so a one-stripe write stages one stripe, not a window.
    aio::stripe_writer writer(*aio_engine_, map_, count, integrity_block_);
    const std::size_t sds = map_.stripe_data_size();
    const std::uint32_t k = map_.k();
    const std::uint32_t n = map_.n();
    std::size_t done = 0;
    bool mark_failed = false;
    while (done < count && !mark_failed) {
        std::size_t window = std::min(writer.window(), count - done);
        // A bounded intent log must keep headroom for the whole window:
        // the window is capped at the free NVRAM words (down to one
        // stripe, marked and cleared on its own) rather than surface
        // rejections a narrower window would never have produced.
        if (journal_.capacity() != 0) {
            const std::size_t free_slots =
                journal_.capacity() > journal_.size()
                    ? journal_.capacity() - journal_.size()
                    : 0;
            window = std::min(window, std::max<std::size_t>(1, free_slots));
        }
        std::size_t submitted = 0;
        for (std::size_t i = 0; i < window; ++i) {
            const std::size_t s = first + done + i;
            if (!journal_mark(s, intent_log::all_columns)) {
                mark_failed = true;
                break;
            }
            stats_.full_stripe_writes.fetch_add(1, std::memory_order_relaxed);
            const std::span<std::byte* const> cols =
                writer.stage(i, in.data() + (done + i) * sds);
            // Data columns go into flight before parity exists: the encode
            // below overlaps with their execution when a worker pool is
            // attached, and still batches per disk when running inline.
            writer.submit_columns(s, i, cols, 0, k);
            const codes::stripe_view v(cols, map_.rows(),
                                       map_.element_size());
            code_.encode_crc(v, integrity_block_, writer.column_crcs(i, k),
                             writer.column_crcs(i, k + 1));
            writer.submit_columns(s, i, cols, k, n);
            ++submitted;
        }
        writer.drain();
        // Store results are ignored: failed disks miss the update and the
        // stripe stays decodable while <= 2 columns are down. The journal
        // entry is cleared only once every column of the stripe has been
        // given to the backend.
        if (powered_) {
            for (std::size_t i = 0; i < submitted; ++i)
                journal_clear(first + done + i);
        }
        if (!powered_) return true;
        done += submitted;
    }
    if (mark_failed) return false;
    return failed_disk_count() <= 2;
}

bool raid6_array::write_partial(std::size_t stripe, std::size_t in_stripe,
                                std::span<const std::byte> in) {
    obs::timed_span span(obs_, hist_write_small_, "raid.write_small");
    const std::size_t elem = map_.element_size();
    const std::uint32_t pc = code_.p_column();
    const std::uint32_t qc = code_.q_column();
    const auto& g = code_.geom();

    // A stripe still journaled from an earlier crash may hold torn parity;
    // patching torn parity would carry the tear forward under a *cleared*
    // journal entry — silent corruption. Re-sync first (md does the same
    // the first time it touches a dirty-bitmap stripe after an unclean
    // shutdown). Failure leaves the stripe journaled and the write refused.
    if (journal_.is_dirty(stripe)) {
        codes::stripe_buffer rbuf = make_stripe_buffer();
        if (!resync_journaled_stripe(stripe, rbuf.view())) return false;
    }

    // One touched data element per plan entry.
    struct touch {
        std::uint32_t col, row;
        std::size_t in_elem;   ///< first modified byte within the element
        std::size_t src_off;   ///< offset into `in`
        std::size_t chunk;
    };
    std::vector<touch> plan;
    for (std::size_t i = 0; i < in.size();) {
        const std::size_t o = in_stripe + i;
        const auto col = static_cast<std::uint32_t>(o / map_.strip_size());
        const std::size_t in_strip = o % map_.strip_size();
        const auto row = static_cast<std::uint32_t>(in_strip / elem);
        const std::size_t in_elem = in_strip % elem;
        const std::size_t chunk = std::min(in.size() - i, elem - in_elem);
        plan.push_back({col, row, in_elem, i, chunk});
        i += chunk;
    }

    // Validate phase: the update-optimal path needs every touched data
    // element and every parity element it patches to be readable. Nothing
    // is mutated until validation passes, so the stripe never ends up
    // half-updated before the reconstruct-write fallback below runs.
    // Reads are verified: XOR-patching parity with a delta computed from
    // silently corrupt old bytes would bake the corruption into parity
    // permanently. A checksum mismatch here simply demotes the write to
    // the reconstruct-write fallback, whose classification heals it.
    util::aligned_buffer old_e(elem), new_e(elem), delta(elem), par(elem);
    bool fast_ok = true;
    for (const touch& t : plan) {
        const strip_location dloc = map_.locate(stripe, t.col);
        const strip_location ploc = map_.locate(stripe, pc);
        const strip_location qloc = map_.locate(stripe, qc);
        const std::size_t elem_off = static_cast<std::size_t>(t.row) * elem;
        if (verified_disk_read(dloc.disk, dloc.offset + elem_off,
                               old_e.span()) != io_status::ok ||
            verified_disk_read(
                ploc.disk,
                ploc.offset + static_cast<std::size_t>(t.row) * elem,
                par.span()) != io_status::ok ||
            verified_disk_read(
                qloc.disk,
                qloc.offset +
                    static_cast<std::size_t>(g.diag_of(t.row, t.col)) * elem,
                par.span()) != io_status::ok) {
            fast_ok = false;
            break;
        }
        if (g.is_extra_position(t.row, t.col) &&
            verified_disk_read(
                qloc.disk,
                qloc.offset +
                    static_cast<std::size_t>(g.extra_q_index(t.col)) * elem,
                par.span()) != io_status::ok) {
            fast_ok = false;
            break;
        }
    }

    // Set to false when a mid-apply failure leaves a parity patch landed
    // without its peers and the rollback below cannot undo it: P/Q then
    // disagree with the data and must not be used to reconstruct anything.
    bool parity_trusted = true;
    if (fast_ok) {
        // Apply phase. Validation makes failures rare, but transient
        // faults or a health trip can still strike between phases. Each
        // touched element updates its 2-3 parity elements and then the
        // data element; on a mid-apply failure the landed patches of the
        // in-flight element are rolled back by XOR-ing the same delta out
        // again (exact, because a failed vdisk write never reaches the
        // medium) — completed elements are self-consistent, so a
        // successful rollback leaves the whole stripe consistent for the
        // reconstruct-write fallback below.
        std::uint64_t touch_mask = (std::uint64_t{1} << pc) |
                                   (std::uint64_t{1} << qc);
        for (const touch& t : plan) touch_mask |= std::uint64_t{1} << t.col;
        if (!journal_mark(stripe, touch_mask)) return false;
        bool applied = true;
        struct landed_patch {
            std::uint32_t disk;
            std::size_t offset;
        };
        std::vector<landed_patch> landed;
        for (const touch& t : plan) {
            const strip_location dloc = map_.locate(stripe, t.col);
            const strip_location ploc = map_.locate(stripe, pc);
            const strip_location qloc = map_.locate(stripe, qc);
            const std::size_t elem_off = static_cast<std::size_t>(t.row) * elem;

            if (verified_disk_read(dloc.disk, dloc.offset + elem_off,
                                   old_e.span()) != io_status::ok) {
                applied = false;
                break;
            }
            std::memcpy(new_e.data(), old_e.data(), elem);
            std::memcpy(new_e.data() + t.in_elem, in.data() + t.src_off,
                        t.chunk);
            xorops::xor2(delta.data(), old_e.data(), new_e.data(), elem);

            landed.clear();
            const auto patch = [&](std::uint32_t prow,
                                   const strip_location& loc) {
                const std::size_t poff =
                    loc.offset + static_cast<std::size_t>(prow) * elem;
                if (verified_disk_read(loc.disk, poff, par.span()) !=
                    io_status::ok) {
                    return false;
                }
                xorops::xor_into(par.data(), delta.data(), elem);
                if (disk_write(loc.disk, poff, par.span()) != io_status::ok) {
                    return false;
                }
                landed.push_back({loc.disk, poff});
                return true;
            };

            bool touch_ok =
                patch(t.row, ploc) && patch(g.diag_of(t.row, t.col), qloc);
            std::uint32_t touched = 2;
            if (touch_ok && g.is_extra_position(t.row, t.col)) {
                touch_ok = patch(g.extra_q_index(t.col), qloc);
                ++touched;
            }
            if (touch_ok &&
                disk_write(dloc.disk, dloc.offset + elem_off, new_e.span()) !=
                    io_status::ok) {
                touch_ok = false;
            }
            if (!touch_ok) {
                for (const landed_patch& u : landed) {
                    if (disk_read(u.disk, u.offset, par.span()) !=
                        io_status::ok) {
                        parity_trusted = false;
                        break;
                    }
                    xorops::xor_into(par.data(), delta.data(), elem);
                    if (disk_write(u.disk, u.offset, par.span()) !=
                        io_status::ok) {
                        parity_trusted = false;
                        break;
                    }
                }
                applied = false;
                break;
            }
            stats_.parity_elements_updated.fetch_add(
                touched, std::memory_order_relaxed);
        }
        if (applied) {
            journal_clear(stripe);
            stats_.small_writes.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        // Power died mid-apply: the record-ahead checksums of the dropped
        // writes make the stripe look corrupt to the verified fallback,
        // but it is *torn* — resync-on-replay owns that classification,
        // not load_stripe_verified. Leave it journaled and stop.
        if (!powered_) return true;
        // Fall through to the reconstruct-write path; the stripe stays
        // journaled until it completes.
    }

    // Degraded fallback: reconstruct the whole stripe (checksum-verified —
    // a silently corrupt column must not be re-encoded into fresh parity),
    // splice the new bytes, re-encode, write everything that is still
    // online. With parity untrusted (a rollback failure above), no data
    // column may be reconstructed from it: load_stripe_verified refuses,
    // the write fails loudly, and the stripe stays journaled for
    // recover_write_hole() to re-sync from data.
    codes::stripe_buffer buf = make_stripe_buffer();
    const stripe_recovery rec = load_stripe_verified(
        stripe, buf.view(), /*writeback=*/false, {}, parity_trusted);
    if (!rec.ok) return false;
    if (!rec.erased.empty()) {
        stats_.degraded_stripe_reads.fetch_add(1, std::memory_order_relaxed);
        for (const std::uint32_t col : rec.erased) {
            // Latent sector errors heal below when every column is
            // rewritten; keep the accounting load_and_decode would do.
            if (rec.statuses[col] == io_status::unreadable_sector) {
                stats_.media_errors_recovered.fetch_add(
                    1, std::memory_order_relaxed);
            }
        }
    }
    if (!rec.healed.empty()) {
        stats_.reads_self_healed.fetch_add(1, std::memory_order_relaxed);
    }
    for (std::size_t j = 0; j < in.size();) {
        const std::size_t o = in_stripe + j;
        const auto col = static_cast<std::uint32_t>(o / map_.strip_size());
        const std::size_t in_strip = o % map_.strip_size();
        const std::size_t chunk =
            std::min(in.size() - j, map_.strip_size() - in_strip);
        std::memcpy(buf.view().strip(col).data() + in_strip, in.data() + j,
                    chunk);
        j += chunk;
    }
    code_.encode(buf.view());
    std::vector<std::uint32_t> cols(map_.n());
    for (std::uint32_t c = 0; c < map_.n(); ++c) cols[c] = c;
    if (!journal_mark(stripe, intent_log::all_columns)) return false;
    store_columns(stripe, buf.view(), cols);
    journal_clear(stripe);
    stats_.small_writes.fetch_add(1, std::memory_order_relaxed);
    return failed_disk_count() <= 2;
}

}  // namespace liberation::raid
