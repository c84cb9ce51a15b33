// RAID-6 array controller over virtual disks, coded with the optimal
// Liberation algorithms.
//
// Supported operations:
//   * extent reads, transparently degraded when disks are failed or return
//     latent sector errors (up to two columns per stripe);
//   * extent writes: full-stripe writes encode in one pass; sub-stripe
//     writes take the read-modify-write small-write path, patching exactly
//     the 2 (occasionally 3) parity elements the Liberation update rule
//     names — the update-optimality the paper motivates in Section I;
//   * disk fail / replace, rebuild (see rebuild.hpp) and scrubbing
//     (see scrubber.hpp);
//   * fault tolerance: every disk read/write funnels through a retrying
//     io_policy (transient errors are retried with backoff), outcomes feed
//     a per-disk health_monitor that trips error-prone disks to failed,
//     and failed disks are automatically replaced from a hot-spare pool
//     with an incremental background rebuild (md's recovery window)
//     interleaved with foreground I/O;
//   * async I/O pipeline: the stripe paths (full-stripe writes, rebuild
//     slices, scrub passes) run over an io_uring-style
//     submission/completion queue pair (aio/) that batches per-disk I/O,
//     coalesces adjacent reads, and overlaps parity computation with
//     in-flight column writes. Retry/backoff and health accounting stay
//     in the execution stage (disk_read/disk_write are the queue's
//     backend); checksum verification runs as a completion-stage
//     decorator. io_queue_depth sizes the window; depth 1 is a window of
//     one stripe on the same path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "liberation/aio/queue_pair.hpp"
#include "liberation/codes/stripe.hpp"
#include "liberation/obs/obs.hpp"
#include "liberation/core/liberation_optimal_code.hpp"
#include "liberation/integrity/integrity_region.hpp"
#include "liberation/raid/health.hpp"
#include "liberation/raid/intent_log.hpp"
#include "liberation/raid/io_policy.hpp"
#include "liberation/raid/latency_monitor.hpp"
#include "liberation/raid/stripe_map.hpp"
#include "liberation/raid/vdisk.hpp"

namespace liberation::util {
class thread_pool;
}  // namespace liberation::util

namespace liberation::raid {

namespace persist {
class store;
struct mounter;
}  // namespace persist

struct array_config {
    std::uint32_t k = 4;            ///< data disks
    std::uint32_t p = 0;            ///< code prime; 0 = smallest odd prime >= k
    std::size_t element_size = 4096;
    std::size_t stripes = 32;
    std::size_t sector_size = 4096;
    /// parity_first enables add_data_disk(); pick p large enough for the
    /// anticipated maximum k (the paper's "Case (b)" deployment).
    parity_layout layout = parity_layout::rotating;

    // ---- fault tolerance ---------------------------------------------
    /// Blank standby disks. When a disk fails (operator, injected, or
    /// health-tripped) one is promoted automatically and rebuilt in the
    /// background. 0 = no spares, failures wait for the operator.
    std::uint32_t hot_spares = 0;
    /// Promote spares automatically on failure (requires hot_spares > 0).
    bool auto_failover = true;
    /// Stripes of background rebuild serviced per foreground read/write.
    std::size_t rebuild_batch_stripes = 4;
    /// Retry/backoff policy for every disk I/O.
    io_policy_config io_retry{};
    /// Error thresholds that trip a disk to failed.
    health_config health{};
    /// Fail-slow tolerance: adaptive per-disk read deadlines, hedged
    /// reconstructed reads, and slow-disk quarantine (latency_monitor.hpp).
    /// Off by default — hedging changes virtual-time accounting.
    latency_config latency{};

    // ---- end-to-end integrity ----------------------------------------
    /// Verify every host read against the per-disk checksum regions; a
    /// mismatch demotes the column to an erasure, the stripe is decoded,
    /// the recovered bytes are re-verified, and the repair is written back
    /// (read-repair). Scrub and rebuild verification are always on.
    bool verify_reads = true;
    /// Intent-log capacity in stripes; 0 = unbounded. When the log is
    /// full, writes that would need a new entry fail loudly
    /// (writes_rejected_log_full) instead of proceeding unjournaled.
    std::size_t intent_log_entries = 0;

    // ---- async I/O pipeline ------------------------------------------
    /// Per-disk in-flight window of the submission-queue engine (aio/),
    /// in stripes: full-stripe writes submit all k+2 column I/Os of up to
    /// this many stripes and encode parity while data is in flight;
    /// rebuild and scrub window-prefetch this many stripes with per-disk
    /// read coalescing. 1 runs the same path one stripe at a time
    /// (byte-identical disk images at every depth).
    std::size_t io_queue_depth = 8;
    /// Coalesce adjacent reads per disk into single transfers (writes are
    /// never coalesced; see aio::aio_config::merge_adjacent).
    bool io_merge = true;
    /// Optional worker pool for the aio engine: batches for different
    /// disks execute concurrently. Per-disk order is preserved, but
    /// cross-disk write order becomes nondeterministic — leave null for
    /// seeded power-loss / chaos replay.
    util::thread_pool* io_workers = nullptr;

    // ---- observability -----------------------------------------------
    /// Drive the array's metrics/tracing hub off its virtual clock
    /// instead of the steady clock: every latency a histogram or trace
    /// span sees is then deterministic (virtual time only advances when
    /// the retry policy charges backoff or a test advances it), which is
    /// what the latency-distribution tests run on. Real deployments keep
    /// the default steady clock.
    bool obs_virtual_time = false;
};

/// Copyable snapshot of the array's operation counters. The live counters
/// are atomic (aio worker batches increment them concurrently with the
/// foreground path); stats() takes a relaxed snapshot.
struct array_stats {
    std::uint64_t full_stripe_writes = 0;
    std::uint64_t small_writes = 0;
    std::uint64_t parity_elements_updated = 0;  ///< by small writes
    std::uint64_t degraded_stripe_reads = 0;    ///< full-stripe decodes
    std::uint64_t degraded_element_reads = 0;   ///< row-parity fast path
    std::uint64_t media_errors_recovered = 0;   ///< latent errors healed by decode
    std::uint64_t transient_errors_masked = 0;  ///< ops saved by retries
    std::uint64_t retries_exhausted = 0;        ///< transient after full budget
    std::uint64_t disks_tripped = 0;            ///< failed by the health monitor
    std::uint64_t spares_promoted = 0;
    std::uint64_t rebuilds_completed = 0;       ///< background sessions finished
    std::uint64_t rebuild_stripes_failed = 0;   ///< unrecoverable during bg rebuild
    std::uint64_t rebuild_sessions_stalled = 0; ///< > 2 losses, operator needed
    std::uint64_t checksum_mismatches = 0;      ///< blocks failing their CRC
    std::uint64_t reads_self_healed = 0;        ///< stripes repaired on read
    std::uint64_t reads_unrecoverable = 0;      ///< verified reads refused
    std::uint64_t checksum_metadata_repaired = 0;  ///< stale/damaged CRCs fixed
    std::uint64_t writes_rejected_log_full = 0; ///< intent log at capacity
    // ---- fail-slow tolerance (latency_monitor.hpp) ---------------------
    std::uint64_t deadline_exceeded = 0;   ///< reads outliving their deadline
    std::uint64_t hedged_reads = 0;        ///< reconstruction hedges issued
    std::uint64_t hedge_wins = 0;          ///< hedges that beat the straggler
    std::uint64_t slow_trips = 0;          ///< disks quarantined suspect_slow
    std::uint64_t slow_recoveries = 0;     ///< quarantines lifted by probes
    std::uint64_t slow_routed_reads = 0;   ///< reads routed around quarantine
    // ---- persistence (raid/persist/) ----------------------------------
    std::uint64_t intent_replayed = 0;     ///< journaled stripes re-synced at mount
    std::uint64_t stale_disks_kicked = 0;  ///< members demoted to rebuild at mount
    // ---- async I/O pipeline (mirrors aio::aio_stats) ------------------
    std::uint64_t aio_batches = 0;            ///< transfers issued by the engine
    std::uint64_t aio_merges = 0;             ///< reads absorbed into a neighbour
    std::uint64_t aio_split_retries = 0;      ///< merged transfers re-driven split
    std::uint64_t aio_inflight_highwater = 0; ///< max pending on any one disk
};

/// Sum `add` into `into` field by field (aio_inflight_highwater keeps the
/// max): the volume's shard roll-up and the chaos campaign's totals
/// across kill-and-remount generations.
void accumulate(array_stats& into, const array_stats& add);

class raid6_array {
public:
    explicit raid6_array(const array_config& cfg);
    /// Out of line: ~unique_ptr<persist::store> needs the complete type.
    ~raid6_array();

    raid6_array(const raid6_array&) = delete;
    raid6_array& operator=(const raid6_array&) = delete;

    [[nodiscard]] const stripe_map& map() const noexcept { return map_; }
    [[nodiscard]] const core::liberation_optimal_code& code() const noexcept {
        return code_;
    }
    [[nodiscard]] std::size_t capacity() const noexcept {
        return map_.capacity();
    }
    [[nodiscard]] std::uint32_t disk_count() const noexcept {
        return map_.n();
    }
    [[nodiscard]] vdisk& disk(std::uint32_t d) { return *disks_[d]; }
    [[nodiscard]] const vdisk& disk(std::uint32_t d) const { return *disks_[d]; }
    [[nodiscard]] array_stats stats() const noexcept;

    // ---- observability -----------------------------------------------
    /// The array's metrics + tracing hub. Latency histograms
    /// (raid_*_ns/io_*_ns/aio_*_ns) and gauges update live on the hot
    /// paths; counters mirror the atomic stats at export time via a
    /// registered collector, so obs().metrics_text() is one coherent
    /// Prometheus exposition of the whole pipeline. Enable
    /// obs().trace().enable() to capture Chrome trace spans.
    [[nodiscard]] obs::hub& obs() noexcept { return obs_; }
    [[nodiscard]] const obs::hub& obs() const noexcept { return obs_; }

    // ---- end-to-end integrity ----------------------------------------

    [[nodiscard]] bool verify_reads() const noexcept { return verify_reads_; }
    [[nodiscard]] std::size_t sector_size() const noexcept {
        return sector_size_;
    }
    /// Checksum granularity: gcd(sector_size, element_size), so every
    /// element-aligned disk I/O is block-aligned.
    [[nodiscard]] std::size_t integrity_block() const noexcept {
        return integrity_block_;
    }
    /// Battery-backed checksum region of disk slot `d`. Preserved across
    /// fail/replace/promote: it describes the slot's last-known contents,
    /// which is what rebuild verification checks reconstructions against.
    [[nodiscard]] integrity::integrity_region& integrity(std::uint32_t d) {
        return regions_[d];
    }
    [[nodiscard]] const integrity::integrity_region& integrity(
        std::uint32_t d) const {
        return regions_[d];
    }

    [[nodiscard]] std::uint32_t failed_disk_count() const noexcept;

    /// Read [addr, addr+out.size()); false only if more than two columns of
    /// some stripe are unavailable (data loss).
    [[nodiscard]] bool read(std::size_t addr, std::span<std::byte> out);

    /// Write [addr, addr+in.size()). Returns false on unrecoverable layout
    /// damage (> 2 unavailable columns in a touched stripe).
    [[nodiscard]] bool write(std::size_t addr, std::span<const std::byte> in);

    /// Fail-stop a disk. If a hot spare is available (and auto_failover is
    /// on) it is promoted and a background rebuild starts on the next
    /// foreground operation — or call service_background_rebuild directly.
    void fail_disk(std::uint32_t d);

    /// Install a blank replacement (contents must be rebuilt afterwards).
    /// Cancels any background-rebuild claim on the slot and resets its
    /// health history (it is new hardware).
    void replace_disk(std::uint32_t d);

    // ---- fault tolerance ---------------------------------------------

    [[nodiscard]] const health_monitor& health() const noexcept {
        return health_;
    }
    /// Fail-slow monitor: per-disk latency distributions, adaptive
    /// deadlines, and quarantine state (config: array_config::latency).
    [[nodiscard]] const latency_monitor& latency_mon() const noexcept {
        return latmon_;
    }
    [[nodiscard]] virtual_clock& clock() noexcept { return clock_; }
    [[nodiscard]] io_policy_stats io_stats() const noexcept {
        return policy_.stats();
    }
    [[nodiscard]] std::uint32_t spare_count() const noexcept {
        return static_cast<std::uint32_t>(spares_.size());
    }
    [[nodiscard]] bool rebuild_active() const noexcept {
        return rebuild_active_;
    }
    /// True when more disks are awaiting rebuild than RAID-6 can decode
    /// around (> 2): the session cannot make progress until the operator
    /// replaces a disk. Reads of the masked columns fail loudly meanwhile.
    [[nodiscard]] bool rebuild_stalled() const noexcept {
        return rebuild_stalled_;
    }
    /// Disks currently being rebuilt in the background.
    [[nodiscard]] std::uint32_t rebuilding_disk_count() const noexcept {
        return static_cast<std::uint32_t>(rebuilding_.size());
    }
    /// Stripes the current background rebuild session has yet to process
    /// (the furthest-behind member's backlog).
    [[nodiscard]] std::size_t rebuild_stripes_remaining() const noexcept {
        std::size_t remaining = 0;
        for (const rebuild_member& m : rebuilding_) {
            remaining = std::max(remaining, map_.stripes() - m.cursor);
        }
        return remaining;
    }

    /// Promote spares for any failed disks and advance the background
    /// rebuild by up to `max_stripes` stripes. Called implicitly from
    /// read()/write() (a batch per host op); call directly to make
    /// progress on an idle array. Returns stripes processed now.
    std::size_t service_background_rebuild(std::size_t max_stripes);

    /// Run the background rebuild to completion (no-op when idle).
    void drain_background_rebuild();

    /// All disk reads funnel through here: retry policy, health
    /// accounting, health tripping, and masking of not-yet-rebuilt extents
    /// on promoted spares (io_status::rebuilding).
    io_status disk_read(std::uint32_t d, std::size_t offset,
                        std::span<std::byte> out);

    /// Patrol read: walk every stripe, reconstruct unreadable strips
    /// (latent sector errors) and rewrite them in place. Plain reads only
    /// touch data columns, so parity-strip media errors are only ever
    /// found — and healed — here. Returns the number of strips healed;
    /// stripes with more than two unavailable columns are skipped.
    std::size_t resilver();

    // ---- write-hole protection (see intent_log.hpp) -------------------

    /// Drop every disk write after the next `disk_writes` ones, simulating
    /// power loss mid-update. The intent log survives (battery-backed).
    void simulate_power_loss_after(std::uint64_t disk_writes) noexcept {
        write_budget_ = disk_writes;
    }

    [[nodiscard]] bool powered() const noexcept { return powered_; }

    /// Power back on. Stripes named by the journal may be torn; call
    /// recover_write_hole() before trusting parity.
    void reboot() noexcept {
        powered_ = true;
        write_budget_ = UINT64_MAX;
    }

    [[nodiscard]] const intent_log& journal() const noexcept {
        return journal_;
    }

    /// Re-sync parity of every journaled stripe (data columns are taken as
    /// the source of truth, exactly like md's resync after an unclean
    /// shutdown). Returns the number of stripes re-synced; stripes with
    /// unreadable columns are left journaled.
    std::size_t recover_write_hole();

    // ---- persistence (see raid/persist/) ------------------------------

    /// True when the array is backed by an on-disk store (created with
    /// persist::create_array or persist::mount_array).
    [[nodiscard]] bool persistent() const noexcept {
        return store_ != nullptr;
    }
    /// The backing store, or nullptr for a purely in-memory array.
    [[nodiscard]] persist::store* persistence() noexcept {
        return store_.get();
    }

    /// Clean shutdown of a persistent array: refresh every superblock
    /// image (checksum tables, intent log, membership), mark them clean,
    /// persist and fsync everything, and detach from the store. The next
    /// mount sees `clean` and skips intent replay. Returns false when any
    /// superblock could not be written (the array still detaches — the
    /// next mount simply treats it as unclean). No-op (true) when the
    /// array is not persistent.
    bool unmount();

    /// Online growth (parity_first layout only): append a blank disk that
    /// becomes data column k. No parity is recomputed — the new column was
    /// a phantom zero column of the fixed-p Liberation code all along, so
    /// every existing stripe stays valid (paper Section III, Case (b)).
    /// Requires k < p and all disks online. Note the linear address space
    /// is re-laid-out (stripes widen): address stability is per
    /// (stripe, column), as with any single-shot capacity expansion.
    void add_data_disk();

    // ---- stripe-granular interface (rebuild / scrub engines) ----------

    /// Load every readable strip of `stripe` into `dst` (codeword column
    /// order) and report which columns are unavailable. When `statuses` is
    /// non-null it receives the per-column io_status (so callers can tell
    /// transient from latent unavailability). Returns false if more than
    /// two columns are gone.
    [[nodiscard]] bool load_stripe(std::size_t stripe,
                                   const codes::stripe_view& dst,
                                   std::vector<std::uint32_t>& erased,
                                   std::vector<io_status>* statuses = nullptr);

    /// Account a verified read we refused to serve: bumps the stat,
    /// appends a flight-recorder breadcrumb, and on the array's *first*
    /// such loss writes an automatic postmortem bundle (no-op unless
    /// LIBERATION_POSTMORTEM_DIR is set).
    void note_unrecoverable_read(std::size_t stripe);

    /// Write the given codeword columns of `stripe` back to their disks.
    /// Columns on failed disks are skipped (reported false). When
    /// `col_crcs` is non-null, `col_crcs[col]` (null entries allowed)
    /// points at the column's precomputed per-integrity-block CRC32C
    /// words — produced inside the traversal that produced the bytes —
    /// and the integrity region installs them instead of re-reading the
    /// strip.
    bool store_columns(std::size_t stripe, const codes::stripe_view& src,
                       std::span<const std::uint32_t> cols,
                       const std::uint32_t* const* col_crcs = nullptr);

    /// Result of load_stripe_verified(). When ok, `buf` holds a fully
    /// decoded, checksum-verified stripe; `erased` are the columns that
    /// were unavailable (decoded in the buffer), `healed` the columns whose
    /// checksums exposed silent corruption (decoded, and rewritten when
    /// writeback was requested), `meta_repaired` the columns whose *stored
    /// checksums* turned out to be the damaged side (data verified fine
    /// once decoded — the metadata was refreshed).
    struct stripe_recovery {
        bool ok = false;
        bool verified = false;  ///< checksum classification actually ran
        std::vector<std::uint32_t> erased;
        std::vector<io_status> statuses;
        std::vector<std::uint32_t> healed;
        std::vector<std::uint32_t> meta_repaired;
        /// Per-column CRC32C words captured by the verification sweeps
        /// (the fused sweep produces the verdict *and* these in one
        /// traversal): columns with crc_valid[col] != 0 hold
        /// strip_size/integrity_block words at crcs[col * blocks]. Commit
        /// paths (rebuild writeback) hand them to store_columns so
        /// disk_write installs instead of re-traversing the strip.
        std::vector<std::uint32_t> crcs;
        std::vector<std::uint8_t> crc_valid;
    };

    /// Checksum-first stripe recovery: load every readable strip, demote
    /// checksum-mismatching columns to erasures, decode with the optimal
    /// decoder, re-verify reconstructions against their stored checksums
    /// (mismatch with all-verified inputs means the *metadata* was stale —
    /// it is refreshed, never trusted over a parity-consistent decode),
    /// and optionally write repairs back. `extra_erasures` pre-declares
    /// columns the caller already distrusts (rebuild targets). With
    /// `trust_parity` false (torn-stripe fallback) no data column may be
    /// reconstructed from parity; the caller re-encodes parity instead.
    /// Callers are responsible for torn stripes: this routine assumes
    /// parity is consistent with data unless told otherwise.
    [[nodiscard]] stripe_recovery load_stripe_verified(
        std::size_t stripe, const codes::stripe_view& buf, bool writeback,
        std::span<const std::uint32_t> extra_erasures = {},
        bool trust_parity = true);

    /// The classification half of load_stripe_verified() for callers that
    /// already hold the stripe bytes (the aio stripe_loader prefetches
    /// whole windows): `buf` holds every column as read, `statuses` the
    /// per-column read results (non-ok = erased). Behaves exactly like
    /// load_stripe_verified() from that point on — checksum-first suspect
    /// demotion, optimal decode, reconstruction re-verify, metadata
    /// repair, optional writeback.
    [[nodiscard]] stripe_recovery verify_loaded_stripe(
        std::size_t stripe, const codes::stripe_view& buf, bool writeback,
        std::span<const std::uint32_t> extra_erasures, bool trust_parity,
        std::vector<io_status> statuses);

    // ---- async I/O pipeline ------------------------------------------

    /// The array's submission/completion queue engine. All pipelined
    /// stripe paths run through it; tests and benches may submit directly
    /// (requests execute through disk_read/disk_write, so retry, health,
    /// masking, and the power-loss budget all apply; reads flagged
    /// aio::flag_verify pass the checksum completion stage).
    [[nodiscard]] aio::queue_pair& aio_engine() noexcept {
        return *aio_engine_;
    }

    /// Convenience: allocate a stripe buffer with this array's geometry.
    [[nodiscard]] codes::stripe_buffer make_stripe_buffer() const {
        return {map_.rows(), map_.n(), map_.element_size()};
    }

private:
    /// Live counters behind array_stats (see that struct for semantics).
    struct atomic_stats {
        std::atomic<std::uint64_t> full_stripe_writes{0};
        std::atomic<std::uint64_t> small_writes{0};
        std::atomic<std::uint64_t> parity_elements_updated{0};
        std::atomic<std::uint64_t> degraded_stripe_reads{0};
        std::atomic<std::uint64_t> degraded_element_reads{0};
        std::atomic<std::uint64_t> media_errors_recovered{0};
        std::atomic<std::uint64_t> transient_errors_masked{0};
        std::atomic<std::uint64_t> retries_exhausted{0};
        std::atomic<std::uint64_t> disks_tripped{0};
        std::atomic<std::uint64_t> spares_promoted{0};
        std::atomic<std::uint64_t> rebuilds_completed{0};
        std::atomic<std::uint64_t> rebuild_stripes_failed{0};
        std::atomic<std::uint64_t> rebuild_sessions_stalled{0};
        std::atomic<std::uint64_t> checksum_mismatches{0};
        std::atomic<std::uint64_t> reads_self_healed{0};
        std::atomic<std::uint64_t> reads_unrecoverable{0};
        std::atomic<std::uint64_t> checksum_metadata_repaired{0};
        std::atomic<std::uint64_t> writes_rejected_log_full{0};
        std::atomic<std::uint64_t> deadline_exceeded{0};
        std::atomic<std::uint64_t> hedged_reads{0};
        std::atomic<std::uint64_t> hedge_wins{0};
        std::atomic<std::uint64_t> slow_trips{0};
        std::atomic<std::uint64_t> slow_recoveries{0};
        std::atomic<std::uint64_t> slow_routed_reads{0};
        std::atomic<std::uint64_t> intent_replayed{0};
        std::atomic<std::uint64_t> stale_disks_kicked{0};

        [[nodiscard]] array_stats snapshot() const noexcept;
    };

    /// Resolve the hub's clock, histograms, gauges, and the export-time
    /// counter collector (constructor tail).
    void init_obs(const array_config& cfg);
    /// The collector body: mirror every atomic counter family
    /// (array_stats, io_policy_stats, aio_stats) into registry counters.
    void mirror_counters();
    /// Refresh the fault-tolerance gauges (failed disks, spares, rebuild
    /// backlog). Foreground thread only — the underlying state is not
    /// atomic, which is exactly why these are pushed in-line rather than
    /// sampled by the collector.
    void update_health_gauges() noexcept;

    /// Degraded path: load + decode a full stripe into `buf`.
    [[nodiscard]] bool load_and_decode(std::size_t stripe,
                                       const codes::stripe_view& buf);

    /// Small-read fast path: reconstruct one data element via its row
    /// parity (k reads) instead of decoding the whole stripe
    /// (p*(k+1) reads). Only valid when every other column of that row is
    /// readable. Returns false to request the full-stripe fallback.
    [[nodiscard]] bool read_element_degraded(std::size_t stripe,
                                             std::uint32_t row,
                                             std::uint32_t col,
                                             std::span<std::byte> out);

    /// The one full-stripe write path, for a run of `count` >= 1
    /// consecutive aligned full stripes: per window (io_queue_depth
    /// stripes, or fewer), each stripe is journaled, its data columns
    /// submitted zero-copy, parity encoded while they land, then the
    /// window drains and the journal entries clear. The window is capped
    /// by the intent log's headroom so a bounded log never rejects a
    /// write a one-stripe window would have accepted.
    [[nodiscard]] bool write_full_stripes(std::size_t first, std::size_t count,
                                          std::span<const std::byte> in);
    [[nodiscard]] bool write_partial(std::size_t stripe, std::size_t in_stripe,
                                     std::span<const std::byte> in);

    /// All mutating disk I/O funnels through here: power-loss simulation
    /// (once the budget runs out the write is dropped on the floor and the
    /// array goes dark), then the retry policy and health accounting.
    /// `crcs` non-null = the caller already holds the per-block CRC32C of
    /// `in` (computed inside the traversal that produced the bytes); the
    /// integrity region installs the words instead of re-reading the
    /// buffer. Requires a block-aligned extent, exactly like record().
    io_status disk_write(std::uint32_t disk, std::size_t offset,
                         std::span<const std::byte> in,
                         const std::uint32_t* crcs = nullptr);

    /// True when any strip of [offset, offset+len) on disk `d` lies in a
    /// stripe the background rebuild has not reached yet — reads there
    /// must be treated as erasures, not trusted (the spare is still
    /// blank). Extent-aware so coalesced multi-strip reads are masked
    /// whenever any covered strip is; the aio split-retry then localizes
    /// the mask to the strips that deserve it.
    [[nodiscard]] bool rebuild_masked(std::uint32_t d, std::size_t offset,
                                      std::size_t len) const noexcept;

    /// Record a policy-mediated I/O outcome; trips the disk on threshold.
    void note_io(std::uint32_t d, io_kind kind, const io_result& r);

    // ---- fail-slow tolerance (latency_monitor.hpp) ---------------------

    /// disk_read in deferred-time-charge mode: the policy reports the
    /// virtual cost in `latency_us` but does not advance the clock — the
    /// hedged read path charges whichever leg of the race is served.
    io_status disk_read_deferred(std::uint32_t d, std::size_t offset,
                                 std::span<std::byte> out,
                                 std::uint64_t& latency_us);

    /// Fail-slow-aware chunk read on the fast path: `strip_lo` is the
    /// byte offset inside codeword column `col`'s strip, `dst` both the
    /// destination and the read length. Routes around quarantined disks
    /// via decode, hedges reads that outlive the adaptive deadline, and
    /// feeds the latency monitor. Checksum-verifies exactly like
    /// verified_disk_read when verify-on-read is enabled.
    io_status read_chunk_failslow(std::size_t stripe, std::uint32_t col,
                                  std::size_t strip_lo,
                                  std::span<std::byte> dst);

    /// Reconstruction read-set for one column range: submit every other
    /// column's strip through the aio engine (flag_verify), decode the
    /// missing column, verify the requested range against its stored
    /// checksum, and copy it into `dst`. False when the stripe cannot be
    /// decoded or the reconstruction fails verification.
    [[nodiscard]] bool reconstruct_column_range(std::size_t stripe,
                                                std::uint32_t col,
                                                std::size_t strip_lo,
                                                std::span<std::byte> dst);

    /// Promote spares for every failed disk (auto_failover). Starts or
    /// extends the background rebuild session.
    void handle_failed_disks();

    /// Entry hook for read()/write(): failover + one rebuild batch.
    void service_events();

    /// Journal a stripe with its target-column mask; false (and a loud
    /// write failure for the caller) when the log is at capacity.
    [[nodiscard]] bool journal_mark(std::size_t stripe, std::uint64_t cols);
    void journal_clear(std::size_t stripe);

    // ---- persistence hooks (no-ops while store_ is null) ---------------

    /// Take ownership of the backing store and wire every member disk's
    /// media sink to its data area. Called once by the mounter/creator.
    void attach_persistence(std::unique_ptr<persist::store> st);
    /// Mirror medium mutations of slot `d` into the store's data area.
    void attach_media_sink(std::uint32_t d);
    /// Replicate the intent log into every metadata slot and persist.
    /// Fires on every journal mark/clear — the on-disk analogue of
    /// flushing the NVRAM word before data I/O is issued.
    void persist_intent();
    /// Persist the checksum words covering a write of `len` bytes at
    /// `offset` on slot `disk` into that slot's own superblock. Runs even
    /// powered-off: the superblock models the battery-backed metadata
    /// domain, so record-ahead checksums of dropped writes are durable —
    /// that is what makes torn writes detectable after a remount.
    void persist_checksums(std::uint32_t disk, std::size_t offset,
                           std::size_t len);
    /// Recompute slot states, watermarks, spare level, and identity in
    /// every metadata image, bump the membership epoch (`events`), and
    /// persist all metadata slots. Called on failure, promotion,
    /// replacement, and rebuild completion.
    void persist_membership();
    /// Persist just the rebuild watermarks (one batch advanced; no epoch
    /// bump — the membership did not change).
    void persist_watermarks();

    /// (Re)build the aio engine for the current disk count and register
    /// the checksum-verify completion stage on it.
    void rebuild_aio_engine(const aio::aio_config& acfg);

    /// disk_read + checksum verification (verify-on-read mode only):
    /// bytes that read fine but fail their stored CRC come back as
    /// io_status::checksum_mismatch so callers demote the column.
    io_status verified_disk_read(std::uint32_t d, std::size_t offset,
                                 std::span<std::byte> out);

    /// Re-sync one journaled stripe: classify every checksum-mismatching
    /// data column as torn (targeted by the in-flight update — accept the
    /// on-disk bytes) or corrupt (untargeted — recover via checksum-guided
    /// candidate decode), then re-encode parity from data and clear the
    /// journal entry. False leaves the stripe journaled.
    [[nodiscard]] bool resync_journaled_stripe(std::size_t stripe,
                                               const codes::stripe_view& buf);

    /// Corruption recovery for an *untargeted* column of a torn stripe:
    /// parity may itself be torn, so try decoding the column from each
    /// parity subset ({c}, {c,P}, {c,Q}) and accept the first candidate
    /// matching the column's stored checksum.
    [[nodiscard]] bool heal_journaled_column(std::size_t stripe,
                                             const codes::stripe_view& buf,
                                             std::uint32_t col);

    /// Adapter plugging the array's I/O funnel in as the aio engine's
    /// execution backend: reads/writes keep their retry, health, masking,
    /// and power-loss semantics no matter which path submitted them.
    struct disk_backend final : aio::io_backend {
        explicit disk_backend(raid6_array& a) noexcept : owner(a) {}
        io_status execute(const aio::io_desc& d) override;
        raid6_array& owner;
    };

    stripe_map map_;
    core::liberation_optimal_code code_;
    std::size_t sector_size_;
    std::vector<std::unique_ptr<vdisk>> disks_;
    atomic_stats stats_;

    // ---- observability -----------------------------------------------
    obs::hub obs_;
    /// Histograms/gauges resolved once at construction (registry lookups
    /// take a mutex; the hot paths must not).
    obs::latency_histogram* hist_read_ = nullptr;
    obs::latency_histogram* hist_write_full_ = nullptr;
    obs::latency_histogram* hist_write_small_ = nullptr;
    obs::latency_histogram* hist_hedge_delay_ = nullptr;
    obs::gauge* gauge_failed_disks_ = nullptr;
    obs::gauge* gauge_spares_ = nullptr;
    obs::gauge* gauge_rebuild_remaining_ = nullptr;
    obs::gauge* gauge_journal_ = nullptr;
    intent_log journal_;
    std::vector<integrity::integrity_region> regions_;
    bool verify_reads_;
    std::size_t integrity_block_;
    /// Atomic: aio worker-mode writes may race the power-loss budget.
    std::atomic<bool> powered_{true};
    std::atomic<std::uint64_t> write_budget_{UINT64_MAX};

    // ---- async I/O pipeline ------------------------------------------
    disk_backend backend_{*this};
    std::unique_ptr<aio::queue_pair> aio_engine_;

    // ---- fault tolerance ---------------------------------------------
    virtual_clock clock_;
    io_policy policy_;
    health_monitor health_;
    latency_monitor latmon_;
    bool auto_failover_;
    std::size_t rebuild_batch_stripes_;
    std::uint32_t next_disk_id_;
    std::vector<std::unique_ptr<vdisk>> spares_;
    /// One entry per disk being rebuilt in the background (promoted
    /// spare). Each member keeps its own watermark: stripes >= cursor are
    /// masked on that disk, stripes below it are rebuilt (and maintained
    /// by foreground writes) and stay trusted even when another member
    /// joins the session later.
    struct rebuild_member {
        std::uint32_t disk;
        std::size_t cursor;  ///< next stripe to rebuild on this disk
    };
    std::vector<rebuild_member> rebuilding_;
    bool rebuild_active_ = false;
    bool rebuild_stalled_ = false;  ///< > 2 members: see rebuild_stalled()
    bool in_service_ = false;  ///< reentrancy guard for the rebuild batch
    /// Set from deep I/O paths (possibly pool threads) when the health
    /// monitor trips a disk; serviced at the next foreground entry.
    std::atomic<bool> pending_failover_{false};

    // ---- persistence ---------------------------------------------------
    /// Backing store (raid/persist/); null for in-memory arrays. The
    /// mounter is the only outside party that may install it and poke the
    /// array's state while reassembling.
    friend struct persist::mounter;
    std::unique_ptr<persist::store> store_;
};

}  // namespace liberation::raid
