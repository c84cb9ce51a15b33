#include "liberation/raid/chaos.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "liberation/obs/flight_recorder.hpp"
#include "liberation/obs/postmortem.hpp"
#include "liberation/raid/persist/mount.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"
#include "liberation/util/timer.hpp"

namespace liberation::raid {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t n) {
    return seed ^ (0x9e3779b97f4a7c15ULL * (n + 1));
}

namespace {

[[nodiscard]] std::uint32_t pick_online_disk(raid6_array& a,
                                             util::xoshiro256& rng) {
    const std::uint32_t n = a.disk_count();
    for (int attempt = 0; attempt < 64; ++attempt) {
        const auto d = static_cast<std::uint32_t>(rng.next_below(n));
        if (a.disk(d).online()) return d;
    }
    for (std::uint32_t d = 0; d < n; ++d)
        if (a.disk(d).online()) return d;
    return 0;  // all offline; caller's event will be a no-op
}

void accumulate(io_policy_stats& into, const io_policy_stats& s) {
    into.reads += s.reads;
    into.writes += s.writes;
    into.retries += s.retries;
    into.transient_masked += s.transient_masked;
    into.retries_exhausted += s.retries_exhausted;
    into.backoff_us += s.backoff_us;
}

/// The campaign core: one run of `opt` against `t`, every phase once.
class campaign {
public:
    campaign(chaos_target& t, const chaos_options& opt, chaos_report& rep)
        : t_(t), opt_(opt), rep_(rep), dia_(t.dialect()), rng_(opt.seed) {}

    void run() {
        alive_ = t_.create();
        if (!alive_) ++rep_.mount_failures;
        finish(alive_ && body());
    }

private:
    void log(const std::string& msg) const {
        if (opt_.log) opt_.log(msg);
    }
    void log(std::size_t op, const std::string& msg) const {
        log("op " + std::to_string(op) + ": " + msg);
    }
    /// "shard S" wrapped in `before`/`after` when the dialect names shards.
    [[nodiscard]] std::string label(std::uint32_t s, const char* before,
                                    const char* after) const {
        if (!dia_.shard_labels) return {};
        return before + ("shard " + std::to_string(s)) + after;
    }
    [[nodiscard]] std::string disk(std::uint32_t s, std::uint32_t d) const {
        return label(s, "", " ") + "disk " + std::to_string(d);
    }

    // ---- generations: the store dies with every kill ------------------

    void make_slo() {
        if (opt_.slo.empty()) return;
        slo_ = std::make_unique<obs::slo_engine>(t_.hub(), opt_.slo,
                                                 opt_.slo_window_ns);
        slo_->evaluate();  // baseline frame at generation start
    }
    /// The engine references the target's hub: fold its sticky verdict
    /// in before the hub goes away.
    void fold_slo() {
        if (slo_ == nullptr) return;
        slo_->evaluate();
        slo_ever_violated_ = slo_ever_violated_ || slo_->ever_violated();
        rep_.slo_text = slo_->text();
    }
    /// Counters are process-local: each generation's final snapshot is
    /// folded into the campaign totals before the store is destroyed.
    void fold_stats() {
        for (std::uint32_t s = 0; s < t_.shard_count(); ++s) {
            accumulate(rep_.stats, t_.shard(s).stats());
            accumulate(rep_.io, t_.shard(s).io_stats());
        }
        t_.fold_stats();
    }
    /// Arm baseline transient rates on every member disk; spares stay
    /// clean (fresh hardware), which keeps the post-storm array quiet
    /// enough to finish its rebuild. Each generation re-arms with a
    /// derived, decorrelated seed.
    void arm_transients() {
        if (opt_.transient_read_rate <= 0.0 &&
            opt_.transient_write_rate <= 0.0) {
            return;
        }
        for (std::uint32_t s = 0; s < t_.shard_count(); ++s) {
            raid6_array& a = t_.shard(s);
            for (std::uint32_t d = 0; d < a.disk_count(); ++d) {
                a.disk(d).set_transient_fault_rates(
                    opt_.transient_read_rate, opt_.transient_write_rate,
                    derive_seed(opt_.seed, std::uint64_t{s} * 64 + d +
                                               dia_.generation_stride *
                                                   generation_));
            }
        }
    }
    /// Destroy the store with no unmount — the on-disk state of an abrupt
    /// process death — then reassemble it from the backing files.
    bool kill_and_remount(const std::string& why) {
        fold_stats();
        fold_slo();
        slo_.reset();
        last_ns_ = t_.hub().now_ns();
        t_.drop();
        alive_ = false;
        ++rep_.kills;
        log("kill (" + why + "): process state dropped, " + dia_.remounting);
        util::stopwatch mount_clock;
        std::string note;
        alive_ = t_.remount(rep_, note);
        rep_.phases.mount_replay_s += mount_clock.seconds();
        if (!alive_) {
            ++rep_.mount_failures;
            log(dia_.remount_failed + note);
            return false;
        }
        ++rep_.remounts;
        ++generation_;
        arm_transients();
        if (opt_.trace) t_.enable_trace();
        make_slo();
        log("remounted: " + note);
        return true;
    }

    // ---- gates ----------------------------------------------------------

    /// An armed event only fires when its shard is quiet — no failed disk,
    /// no rebuild in flight — so faults never stack beyond the two
    /// erasures RAID-6 tolerates by construction.
    [[nodiscard]] bool quiet(std::uint32_t s) {
        raid6_array& a = t_.shard(s);
        return a.failed_disk_count() == 0 && !a.rebuild_active() &&
               a.powered() && !power_armed_;
    }
    /// Silent corruption is injected under a *looser* gate: healthy,
    /// degraded, or rebuilding — any state with at most one masked column,
    /// so a flipped column stays within the two-erasure decode budget.
    /// Torn (journaled) stripes are excluded: their mismatches belong to
    /// write-hole recovery, not to the corruption classifier.
    [[nodiscard]] bool corruptible(std::uint32_t s) {
        raid6_array& a = t_.shard(s);
        return a.powered() && !power_armed_ && a.failed_disk_count() == 0 &&
               a.rebuilding_disk_count() <= 1 && a.journal().size() == 0;
    }
    [[nodiscard]] bool due(const chaos_periodic& p, std::size_t op) const {
        return p.every != 0 && op % p.every == 0 && op != 0;
    }
    [[nodiscard]] bool pending(chaos_event_kind k) const {
        for (std::size_t i = 0; i < plan_.armed.size(); ++i)
            if (pending_[i] && plan_.armed[i].kind == k) return true;
        return false;
    }

    // ---- events ---------------------------------------------------------

    /// Fire one armed event; false only when its kill could not remount.
    bool fire(const chaos_event& e, std::size_t op) {
        const std::uint32_t s = e.shard;
        raid6_array& a = t_.shard(s);
        switch (e.kind) {
        case chaos_event_kind::fail_stop: {
            const std::uint32_t victim = pick_online_disk(a, rng_);
            log(op, "fail-stop " + disk(s, victim));
            a.fail_disk(victim);
            ++rep_.injected_fail_stops;
            if (plan_.degraded_scrub) degraded_scrub(s, victim, op);
            return true;
        }
        case chaos_event_kind::storm: {
            const std::uint32_t victim = pick_online_disk(a, rng_);
            log(op, "transient storm on " + disk(s, victim));
            a.disk(victim).set_transient_fault_rates(
                plan_.storm_rate, plan_.storm_rate,
                derive_seed(opt_.seed, 1000));
            return true;
        }
        case chaos_event_kind::power_loss:
        case chaos_event_kind::kill_mid_write: {
            // A few disk writes into some stripe update the plug is pulled.
            // A kill does not reboot the same object: the process dies and
            // the remount must replay the intent log.
            const bool kill = e.kind == chaos_event_kind::kill_mid_write;
            const auto budget = 1 + rng_.next_below(4);
            log(op, std::string(kill ? "mid-write kill armed " :
                                       "power loss armed ") +
                        label(s, "on ", " ") + "after " +
                        std::to_string(budget) + " disk writes" +
                        (e.kill_on_loss ? " (kill on loss)" : ""));
            a.simulate_power_loss_after(budget);
            power_armed_ = true;
            kill_armed_ = kill || e.kill_on_loss;
            power_shard_ = s;
            return true;
        }
        case chaos_event_kind::kill_mid_scrub: {
            // Damage is sitting on the medium and the scrub that would
            // heal it never finishes. The corruption must survive the
            // remount round-trip (the files hold the corrupt bytes, the
            // persisted checksums still describe the original data) and
            // the post-remount scrub must repair it.
            const std::size_t stripe = a.map().stripes() / 2;
            const auto c =
                static_cast<std::uint32_t>(rng_.next_below(a.map().n()));
            const strip_location loc = a.map().locate(stripe, c);
            a.disk(loc.disk).inject_silent_corruption(loc.offset, 32, rng_);
            ++rep_.corruptions_injected;
            log(op, "killing mid-scrub (" + disk(s, loc.disk) + " stripe " +
                        std::to_string(stripe) + " corrupt and unhealed)");
            if (!kill_and_remount("mid-scrub")) return false;
            const scrub_summary after = scrub_array(t_.shard(s));
            rep_.remount_scrub_repairs += after.repaired_data +
                                          after.repaired_parity +
                                          after.repaired_metadata;
            rep_.scrub_uncorrectable += after.uncorrectable;
            return true;
        }
        case chaos_event_kind::fail_slow: {
            // Gray failure: the disk keeps answering correctly but every
            // service takes fail_slow_base_us. Constant shape so the
            // deadline-miss streak is unbroken — the monitor must first
            // hedge around individual late reads, then trip the disk into
            // suspect_slow once the lateness proves persistent.
            const std::uint32_t victim = pick_online_disk(a, rng_);
            latency_profile prof;
            prof.kind = latency_profile::shape::constant;
            prof.base_us = plan_.fail_slow_base_us;
            prof.jitter_us = plan_.fail_slow_base_us / 4;
            a.disk(victim).set_latency_profile(
                prof, derive_seed(opt_.seed, 2000 + 64 * generation_));
            slow_shard_ = s;
            slow_victim_ = victim;
            ++rep_.fail_slow_injected;
            log(op, "fail-slow on " + disk(s, victim) +
                        (dia_.fail_slow_service_time
                             ? " (" + std::to_string(plan_.fail_slow_base_us) +
                                   "us per service)"
                             : ""));
            return true;
        }
        case chaos_event_kind::kill_mid_rebuild:
            break;  // not an armed event; see the op loop
        }
        return true;
    }

    /// The shard is now degraded (a spare's rebuild has barely started,
    /// or no spare exists at all). Corrupt a survivor column of the last
    /// stripe — far from the rebuild cursor — and scrub immediately: the
    /// checksum-first scrubber must repair corruption on a degraded
    /// stripe, which the parity cross-check scrubber could only skip.
    void degraded_scrub(std::uint32_t s, std::uint32_t victim,
                        std::size_t op) {
        raid6_array& a = t_.shard(s);
        const std::size_t stripe = a.map().stripes() - 1;
        for (std::uint32_t c = 0; c < a.map().n(); ++c) {
            const strip_location loc = a.map().locate(stripe, c);
            if (loc.disk == victim || !a.disk(loc.disk).online()) continue;
            a.disk(loc.disk).inject_silent_corruption(loc.offset, 32, rng_);
            ++rep_.corruptions_injected;
            log(op, "corrupted survivor " + disk(s, loc.disk) +
                        " on degraded stripe " + std::to_string(stripe));
            break;
        }
        rep_.degraded_scrub_repairs += scrub_array(a).repaired_on_degraded;
    }

    void inject_latent(std::uint32_t s) {
        raid6_array& a = t_.shard(s);
        const std::uint32_t victim = pick_online_disk(a, rng_);
        const std::size_t sector = a.sector_size();
        const std::size_t off =
            rng_.next_below(a.disk(victim).capacity() / sector) * sector;
        a.disk(victim).inject_latent_error(off, sector);
        ++rep_.latent_errors_injected;
    }

    /// Rotate stripes with a stride coprime to the stripe count:
    /// corruption lingers until a read or scrub heals it, and piling three
    /// unhealed flips onto one stripe would exceed what any two-parity
    /// code can repair.
    void inject_corruption(std::uint32_t s, std::size_t op) {
        raid6_array& a = t_.shard(s);
        const std::size_t stripe = (data_flips_ * 7) % a.map().stripes();
        ++data_flips_;
        const auto c = static_cast<std::uint32_t>(rng_.next_below(a.map().n()));
        const strip_location loc = a.map().locate(stripe, c);
        const std::size_t block = a.integrity_block();
        const std::size_t off =
            loc.offset + rng_.next_below(a.map().strip_size() / block) * block;
        const std::size_t len =
            1 + rng_.next_below(std::min<std::size_t>(64, block));
        a.disk(loc.disk).inject_silent_corruption(off, len, rng_);
        ++rep_.corruptions_injected;
        log(op, "silent corruption on " + disk(s, loc.disk) + " stripe " +
                    std::to_string(stripe));
    }

    /// Flip a stored checksum instead of the data it covers: the
    /// verify/decode machinery must conclude the *metadata* is the damaged
    /// side and refresh it, never "heal" the good data.
    void flip_checksum(std::uint32_t s, std::size_t op) {
        raid6_array& a = t_.shard(s);
        const std::uint32_t victim = pick_online_disk(a, rng_);
        integrity::integrity_region& region = a.integrity(victim);
        const std::size_t b = rng_.next_below(region.blocks());
        region.corrupt_block(b, static_cast<std::uint32_t>(rng_.next() | 1));
        ++rep_.integrity_corruptions_injected;
        log(op, "checksum metadata flip on " + disk(s, victim));
    }

    // ---- phases ---------------------------------------------------------

    /// Fill through verdict-ready final scrub; false if the run aborted.
    bool body() {
        if (opt_.trace) t_.enable_trace();
        make_slo();
        util::stopwatch phase_clock;
        arm_transients();

        // Initial fill + shadow copy: every later read has a ground truth.
        const std::size_t cap = t_.shard_count() * t_.shard(0).capacity();
        std::vector<std::byte> shadow(cap);
        rng_.fill(shadow);
        const bool filled = t_.write(0, shadow);
        rep_.phases.fill_s = phase_clock.seconds();
        if (!filled) {
            ++rep_.failed_writes;
            return false;
        }

        const std::size_t max_io =
            opt_.max_io_bytes != 0
                ? std::min(opt_.max_io_bytes, cap)
                : std::min(2 * t_.shard(0).map().stripe_data_size(), cap);
        std::vector<std::byte> buf(max_io);

        plan_ = t_.schedule(rng_);
        pending_.assign(plan_.armed.size(), false);
        bool kill_rebuild_pending = false;
        bool recover_pending = false;

        phase_clock.restart();
        for (std::size_t op = 0; op < opt_.ops; ++op) {
            if (slo_ != nullptr && opt_.slo_every_ops != 0 && op != 0 &&
                op % opt_.slo_every_ops == 0) {
                slo_->evaluate();
            }
            for (std::size_t i = 0; i < plan_.armed.size(); ++i)
                if (op == plan_.armed[i].at_op) pending_[i] = true;
            if (op == plan_.kill_mid_rebuild.at_op) kill_rebuild_pending = true;
            if (op == plan_.fail_slow_recover_at_op) recover_pending = true;

            // The mid-rebuild kill deliberately inverts the quiet() gate:
            // it fires at the first op with a rebuild actually in flight,
            // so the remount must resume it from the persisted watermark.
            const std::uint32_t kr = plan_.kill_mid_rebuild.shard;
            if (kill_rebuild_pending && t_.shard(kr).rebuild_active() &&
                t_.shard(kr).powered() && !power_armed_) {
                kill_rebuild_pending = false;
                log(op, "killing mid-rebuild" + label(kr, " of ", ""));
                if (!kill_and_remount("mid-rebuild")) return false;
            }

            // Fire at most one armed event per op, in priority order.
            bool fired = false;
            for (std::size_t i = 0; i < plan_.armed.size() && !fired; ++i) {
                const chaos_event& e = plan_.armed[i];
                if (!pending_[i] || !quiet(e.shard)) continue;
                if (e.kind == chaos_event_kind::kill_mid_scrub &&
                    t_.shard(e.shard).journal().size() != 0) {
                    continue;
                }
                pending_[i] = false;
                fired = true;
                if (!fire(e, op)) return false;
            }
            if (!fired && due(plan_.latent, op) && quiet(plan_.latent.shard)) {
                inject_latent(plan_.latent.shard);
            }

            // Silent corruption, independent of the armed-event chain (it
            // is what the chain's quiet() gate exists to serialize; flips
            // are *supposed* to land while a rebuild is in flight).
            if (due(plan_.corrupt, op)) {
                const auto s =
                    static_cast<std::uint32_t>(data_flips_ % t_.shard_count());
                if (corruptible(s)) inject_corruption(s, op);
            }
            if (due(plan_.integrity_flip, op) &&
                corruptible(plan_.integrity_flip.shard)) {
                flip_checksum(plan_.integrity_flip.shard, op);
            }

            // The straggler recovers (GC pass ended, link renegotiated).
            // Clearing a profile is safe in any state; the quarantine must
            // now be lifted by the monitor's own probes, not by the
            // injection harness.
            if (recover_pending && !pending(chaos_event_kind::fail_slow) &&
                slow_victim_ != UINT32_MAX) {
                vdisk& d = t_.shard(slow_shard_).disk(slow_victim_);
                if (d.latency_profile_armed()) {
                    d.clear_latency_profile();
                    log(op, "fail-slow " + disk(slow_shard_, slow_victim_) +
                                " recovered");
                }
                recover_pending = false;
            }

            // One workload op over the full address space.
            const bool do_write = rng_.next_below(10) < opt_.write_tenths;
            const std::size_t len = 1 + rng_.next_below(max_io);
            const std::size_t addr = rng_.next_below(cap - len + 1);
            const std::span<std::byte> io(buf.data(), len);
            const std::string where =
                std::to_string(addr) + "+" + std::to_string(len);
            if (do_write) {
                rng_.fill(io);
                ++rep_.writes;
                if (!t_.write(addr, io)) {
                    ++rep_.failed_writes;
                    log(op, "write failed at " + where);
                } else if (t_.shard(power_shard_).powered()) {
                    std::memcpy(shadow.data() + addr, buf.data(), len);
                }
            } else {
                ++rep_.reads;
                if (!t_.read(addr, io)) {
                    ++rep_.failed_reads;
                    log(op, "read failed at " + where);
                } else if (std::memcmp(shadow.data() + addr, buf.data(),
                                       len) != 0) {
                    ++rep_.mismatches;
                    log(op, "shadow mismatch at " + where);
                }
            }
            ++rep_.ops;

            // The power budget ran out mid-op, leaving a torn stripe. A
            // kill remounts (intent replay heals it); otherwise reboot and
            // re-sync the journaled stripes in place. Either way the op's
            // extent is re-read: whichever mix of old/new data the torn
            // write left is now the ground truth, as a real host sees after
            // an unclean shutdown.
            if (!t_.shard(power_shard_).powered()) {
                power_armed_ = false;
                if (kill_armed_) {
                    kill_armed_ = false;
                    if (!kill_and_remount("mid-write")) return false;
                } else {
                    ++rep_.power_losses;
                    log(op, label(power_shard_, "", " ") +
                                "power lost, rebooting");
                    raid6_array& a = t_.shard(power_shard_);
                    a.reboot();
                    // Baseline transients can defer single stripes; retry.
                    for (int r = 0; r < 16 && a.journal().size() != 0; ++r)
                        rep_.resynced_stripes += a.recover_write_hole();
                }
                if (do_write) {
                    if (t_.read(addr, io)) {
                        std::memcpy(shadow.data() + addr, buf.data(), len);
                    } else {
                        ++rep_.failed_reads;
                    }
                }
            }
        }
        rep_.phases.workload_s = phase_clock.seconds();

        // Settle: finish every background rebuild, disarm every fault
        // stream, then heal what is left (latent sectors on strips the
        // workload never re-read, including parity strips only resilver
        // visits).
        phase_clock.restart();
        const std::uint32_t n = t_.shard_count();
        for (std::uint32_t s = 0; s < n; ++s)
            t_.shard(s).drain_background_rebuild();
        for (std::uint32_t s = 0; s < n; ++s) {
            raid6_array& a = t_.shard(s);
            for (std::uint32_t d = 0; d < a.disk_count(); ++d) {
                a.disk(d).clear_transient_faults();
                a.disk(d).clear_latency_profile();
            }
            for (int r = 0; r < 16 && a.journal().size() != 0; ++r)
                rep_.resynced_stripes += a.recover_write_hole();
            rep_.resilver_healed += a.resilver();
        }
        rep_.phases.settle_s = phase_clock.seconds();

        // Settle scrub: heal injected corruption the workload never
        // re-read (including parity strips, which host reads only touch
        // when degraded). Its parity-fallback repairs are damage the
        // checksum domain could not see — a stripe left torn without being
        // journaled — and count against the write-hole invariant.
        phase_clock.restart();
        for (std::uint32_t s = 0; s < n; ++s) {
            const scrub_summary settle = scrub_array(t_.shard(s));
            rep_.settle_scrub_healed += settle.repaired_data +
                                        settle.repaired_parity +
                                        settle.repaired_metadata;
            rep_.final_torn += settle.parity_fallback_repairs;
            rep_.scrub_uncorrectable += settle.uncorrectable;
        }
        rep_.phases.settle_scrub_s = phase_clock.seconds();

        // Final verification: the full address space vs the shadow...
        phase_clock.restart();
        std::vector<std::byte> out(cap);
        if (!t_.read(0, out)) {
            ++rep_.failed_reads;
        } else if (!std::equal(out.begin(), out.end(), shadow.begin())) {
            ++rep_.mismatches;
            log(std::string("final ") + dia_.full_read +
                " read disagrees with the shadow copy");
        }
        // ...then per-stripe availability and a full checksum sweep: after
        // the settle scrub, every readable column must verify against its
        // stored checksum — the "no unverified bytes survive the campaign"
        // invariant.
        for (std::uint32_t s = 0; plan_.checksum_sweep && s < n; ++s)
            checksum_sweep(t_.shard(s));
        rep_.phases.final_verify_s = phase_clock.seconds();

        // ...then parity consistency. The settle scrub already healed
        // every injected fault, so any repair the scrubber performs here
        // means some path left a stripe inconsistent after recovery
        // claimed it was done.
        phase_clock.restart();
        for (std::uint32_t s = 0; s < n; ++s) {
            const scrub_summary scrub = scrub_array(t_.shard(s));
            rep_.final_torn += scrub.repaired_data + scrub.repaired_parity;
            rep_.scrub_uncorrectable += scrub.uncorrectable;
        }
        rep_.phases.final_scrub_s = phase_clock.seconds();
        return true;
    }

    void checksum_sweep(raid6_array& a) {
        codes::stripe_buffer sbuf = a.make_stripe_buffer();
        std::vector<std::uint32_t> erased;
        for (std::size_t s = 0; s < a.map().stripes(); ++s) {
            if (!a.load_stripe(s, sbuf.view(), erased)) {
                ++rep_.final_unrecovered;
                continue;
            }
            if (!erased.empty()) ++rep_.final_degraded;
            for (std::uint32_t c = 0; c < a.map().n(); ++c) {
                if (std::find(erased.begin(), erased.end(), c) !=
                    erased.end()) {
                    continue;
                }
                const strip_location loc = a.map().locate(s, c);
                if (!a.integrity(loc.disk).verify(loc.offset,
                                                  sbuf.view().strip(c))) {
                    ++rep_.final_checksum_bad;
                }
            }
        }
    }

    /// Every planned event visibly exercised its recovery path.
    [[nodiscard]] bool events_ok() {
        const auto planned = [&](chaos_event_kind k, bool kill_on_loss) {
            std::size_t n = 0;
            for (const chaos_event& e : plan_.armed)
                n += e.kind == k && e.at_op < opt_.ops &&
                     e.kill_on_loss == kill_on_loss;
            return n;
        };
        using kind = chaos_event_kind;
        const chaos_report& r = rep_;
        bool ok = true;
        for (std::uint32_t s = 0; s < t_.shard_count(); ++s)
            ok = ok && t_.shard(s).journal().size() == 0;
        const std::size_t stops = planned(kind::fail_stop, false);
        const std::size_t storms = planned(kind::storm, false);
        ok = ok && r.injected_fail_stops >= stops;
        if (storms > 0 && plan_.storm_rate > 0.0)
            ok = ok && r.health_trips >= 1;
        if (planned(kind::power_loss, false) > 0)
            ok = ok && r.power_losses >= 1;
        if (plan_.hot_spares && stops + storms > 0) {
            const std::size_t need = std::max<std::size_t>(stops, 1);
            ok = ok && r.spares_promoted >= need &&
                 r.rebuilds_completed >= need;
        }
        if (plan_.corrupt.every != 0 && plan_.corrupt.every < opt_.ops) {
            // The campaign must not only survive silent corruption but
            // visibly exercise a healing path.
            const std::uint64_t healed =
                r.stats.reads_self_healed +
                (plan_.heal_on_read ? 0 : r.settle_scrub_healed);
            ok = ok && r.corruptions_injected >= 1 && healed >= 1;
        }
        if (plan_.integrity_flip.every != 0 &&
            plan_.integrity_flip.every < opt_.ops) {
            ok = ok && r.integrity_corruptions_injected >= 1 &&
                 r.stats.checksum_metadata_repaired >= 1;
        }
        if (plan_.degraded_scrub && stops > 0)
            ok = ok && r.degraded_scrub_repairs >= 1;
        if (plan_.hedged_reads && planned(kind::fail_slow, false) > 0) {
            // The whole tolerance chain: late reads detected, hedges that
            // beat the straggler, and a quarantine trip.
            ok = ok && r.fail_slow_injected >= 1 && r.deadline_exceeded >= 1 &&
                 r.hedge_wins >= 1 && r.slow_trips >= 1;
            if (plan_.fail_slow_recover_at_op < opt_.ops) {
                ok = ok && r.slow_recoveries >= 1;
            }
        }
        if (t_.persistent()) {
            // Every kill remounted, every planned crash point demonstrated
            // its recovery path (each count only grows on a remount).
            ok = ok && r.mount_failures == 0 && r.kills == r.remounts;
            if (planned(kind::kill_mid_write, false) +
                    planned(kind::power_loss, true) > 0) {
                ok = ok && r.mount_intent_replayed >= 1;
            }
            if (plan_.kill_mid_rebuild.at_op < opt_.ops) {
                ok = ok && r.rebuilds_resumed >= 1;
            }
            if (planned(kind::kill_mid_scrub, false) > 0) {
                ok = ok && r.remount_scrub_repairs >= 1;
            }
            // The campaign's own exit is clean: stamp the superblocks so
            // the *next* mount of the directory sees a clean shutdown.
            ok = ok && t_.unmount();
        }
        return ok;
    }

    /// The one exit path: totals, verdict, observability capture, and —
    /// on a failed verdict — the flight-recorder breadcrumb plus the
    /// automatic postmortem bundle (opt-in via LIBERATION_POSTMORTEM_DIR).
    void finish(bool completed) {
        if (alive_) fold_stats();
        rep_.health_trips = rep_.stats.disks_tripped;
        rep_.spares_promoted = rep_.stats.spares_promoted;
        rep_.rebuilds_completed = rep_.stats.rebuilds_completed;
        rep_.deadline_exceeded = rep_.stats.deadline_exceeded;
        rep_.hedged_reads = rep_.stats.hedged_reads;
        rep_.hedge_wins = rep_.stats.hedge_wins;
        rep_.slow_trips = rep_.stats.slow_trips;
        rep_.slow_recoveries = rep_.stats.slow_recoveries;
        const bool events = completed && events_ok();
        if (alive_) {
            fold_slo();
            rep_.metrics_text = t_.hub().metrics_text();
            rep_.histograms = t_.hub().histogram_snapshots();
            if (opt_.trace) rep_.trace_json = t_.trace_json();
            last_ns_ = t_.hub().now_ns();
        }
        rep_.slo_ok = !slo_ever_violated_;
        rep_.success = rep_.clean() && events && rep_.slo_ok;
        if (rep_.success) return;
        obs::flight_recorder::instance().record(obs::fr_kind::verdict_failed,
                                                last_ns_);
        obs::postmortem_bundle b;
        b.metrics_text = rep_.metrics_text;
        b.trace_json = rep_.trace_json;
        b.slo_text = rep_.slo_text;
        (void)obs::auto_postmortem("chaos_verdict", nullptr, std::move(b));
    }

    chaos_target& t_;
    const chaos_options& opt_;
    chaos_report& rep_;
    const chaos_dialect& dia_;
    util::xoshiro256 rng_;
    chaos_schedule plan_{};
    std::vector<bool> pending_;  ///< per plan_.armed entry

    bool alive_ = false;  ///< the target holds a live store
    std::uint64_t last_ns_ = 0;  ///< hub clock when the store last died
    std::uint64_t generation_ = 0;
    std::unique_ptr<obs::slo_engine> slo_;
    bool slo_ever_violated_ = false;

    bool power_armed_ = false;  ///< budget set, loss not yet observed
    bool kill_armed_ = false;   ///< on the budget's loss: kill, not reboot
    std::uint32_t power_shard_ = 0;
    std::uint32_t slow_shard_ = 0;
    std::uint32_t slow_victim_ = UINT32_MAX;
    std::size_t data_flips_ = 0;
};

/// The single-array target: one shard, file-backed when persist.enabled.
class array_target final : public chaos_target {
public:
    explicit array_target(const chaos_config& cfg) : cfg_(cfg) {}

    const chaos_dialect& dialect() const override {
        static const chaos_dialect d{.fail_slow_service_time = true};
        return d;
    }
    bool create() override {
        if (!cfg_.persist.enabled) {
            arr_ = std::make_unique<raid6_array>(cfg_.array);
        } else {
            // Fixed uuid: the campaign replays bit-for-bit from the seed.
            arr_ = persist::create_array(cfg_.array, store_,
                                         derive_seed(cfg_.seed, 0xA11A) | 1);
        }
        return arr_ != nullptr;
    }
    bool persistent() const override { return cfg_.persist.enabled; }
    void drop() override { arr_.reset(); }
    bool remount(chaos_report& rep, std::string& note) override {
        persist::mount_options mo;
        static_cast<persist::mount_policy&>(mo) =
            persist::mount_policy_for(cfg_.array);
        mo.store = store_;
        mo.io_workers = cfg_.array.io_workers;
        persist::mounted_array m = persist::mount_array(mo);
        if (!m.report.ok) {
            note = m.report.error;
            return false;
        }
        arr_ = std::move(m.array);
        rep.mount_intent_replayed += m.report.intent_replayed;
        rep.stale_disks_kicked += m.report.stale_kicked + m.report.unreadable;
        rep.rebuilds_resumed += m.report.rebuilds_resumed;
        note = std::to_string(m.report.disks_online) + "/" +
               std::to_string(m.report.disks_total) + " online, " +
               std::to_string(m.report.intent_replayed) + " stripes replayed";
        return true;
    }
    bool unmount() override { return arr_->unmount(); }

    std::uint32_t shard_count() const override { return 1; }
    raid6_array& shard(std::uint32_t) override { return *arr_; }
    bool read(std::size_t addr, std::span<std::byte> out) override {
        return arr_->read(addr, out);
    }
    bool write(std::size_t addr, std::span<const std::byte> in) override {
        return arr_->write(addr, in);
    }
    obs::hub& hub() override { return arr_->obs(); }
    void enable_trace() override { arr_->obs().trace().enable(); }
    std::string trace_json() const override { return arr_->obs().trace_json(); }

    /// Every event on shard 0, in the firing priority the goldens pin.
    chaos_schedule schedule(util::xoshiro256& /*rng*/) override {
        const chaos_event_plan& ev = cfg_.events;
        const chaos_persist_plan& pp = cfg_.persist;
        const auto kill_at = [&](std::size_t op) {
            return pp.enabled ? op : SIZE_MAX;
        };
        using kind = chaos_event_kind;
        chaos_schedule s;
        s.armed = {{kind::fail_stop, ev.fail_stop_at_op},
                   {kind::storm, ev.health_storm_at_op},
                   {kind::power_loss, ev.power_loss_at_op},
                   {kind::kill_mid_write, kill_at(pp.kill_mid_write_at_op)},
                   {kind::kill_mid_scrub, kill_at(pp.kill_mid_scrub_at_op)},
                   {kind::fail_slow, ev.fail_slow_at_op}};
        s.kill_mid_rebuild.at_op = kill_at(pp.kill_mid_rebuild_at_op);
        s.fail_slow_recover_at_op = ev.fail_slow_recover_at_op;
        s.latent.every = ev.latent_error_every;
        s.integrity_flip.every = ev.corrupt_integrity_every;
        s.corrupt.every = ev.corrupt_every;
        s.degraded_scrub = ev.degraded_scrub;
        s.storm_rate = cfg_.storm_rate;
        s.fail_slow_base_us = ev.fail_slow_base_us;
        s.hot_spares = cfg_.array.hot_spares > 0;
        s.hedged_reads = cfg_.array.latency.hedged_reads;
        return s;
    }

private:
    const chaos_config& cfg_;
    const persist::store_config store_{.dir = cfg_.persist.dir,
                                       .sync_meta = cfg_.persist.sync_meta};
    std::unique_ptr<raid6_array> arr_;
};

}  // namespace

void run_campaign(chaos_target& target, const chaos_options& opt,
                  chaos_report& rep) {
    campaign(target, opt, rep).run();
}

chaos_config default_chaos_config(std::uint64_t seed, std::size_t ops) {
    chaos_config cfg;
    cfg.seed = seed;
    cfg.ops = ops;
    cfg.array.k = 4;
    cfg.array.element_size = 512;
    cfg.array.stripes = 32;
    cfg.array.sector_size = 512;
    // One spare each for the injected fail-stop and the health trip.
    cfg.array.hot_spares = 2;
    cfg.array.rebuild_batch_stripes = 4;
    // Baseline transient rates are masked by retries and must NOT trip
    // disks; only *hard* (retry-exhausted) errors count, which the storm
    // disk produces almost immediately at storm_rate = 0.9
    // (0.9^4 ≈ 0.66 per I/O) while baseline disks essentially never do
    // (0.01^4 = 1e-8 per read).
    cfg.array.health.max_transient_errors = 0;  // disabled
    cfg.array.health.max_read_errors = 20;
    cfg.array.health.max_write_errors = 1;  // md: first lost write trips
    return cfg;
}

chaos_report run_chaos_campaign(const chaos_config& cfg) {
    chaos_report rep;
    array_target target(cfg);
    run_campaign(target, cfg, rep);
    return rep;
}

}  // namespace liberation::raid
