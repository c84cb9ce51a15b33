#include "liberation/volume/chaos.hpp"

#include <memory>

#include "liberation/util/rng.hpp"

namespace liberation::volume {

namespace {

/// The volume target: N shards behind one address space, file-backed
/// (manifest + one store per shard) when persist_enabled.
class volume_target final : public raid::chaos_target {
public:
    volume_target(const volume_chaos_config& cfg, volume_stats& totals)
        : cfg_(cfg), totals_(totals) {}

    const raid::chaos_dialect& dialect() const override {
        static const raid::chaos_dialect d{
            .shard_labels = true,
            .remounting = "remounting volume",
            .remount_failed = "volume remount FAILED: ",
            .full_read = "full-volume",
            .generation_stride = 8192,
        };
        return d;
    }
    bool create() override {
        if (!cfg_.persist_enabled) {
            vol_ = std::make_unique<volume>(cfg_.volume);
        } else {
            // Fixed uuid: the campaign replays bit-for-bit from the seed.
            vol_ = persist::create_volume(
                cfg_.volume, {.dir = cfg_.dir, .sync_meta = cfg_.sync_meta},
                raid::derive_seed(cfg_.seed, 0xB011) | 1);
        }
        return vol_ != nullptr;
    }
    bool persistent() const override { return cfg_.persist_enabled; }
    /// Whole-process death: every shard's array object goes with it.
    void drop() override { vol_.reset(); }
    /// mount_volume(): manifest election, shard census, per-shard member
    /// election + intent replay.
    bool remount(raid::chaos_report& rep, std::string& note) override {
        persist::volume_mount_options mo;
        static_cast<raid::persist::mount_policy&>(mo) =
            raid::persist::mount_policy_for(cfg_.volume.shard);
        mo.store = {.dir = cfg_.dir, .sync_meta = cfg_.sync_meta};
        persist::mounted_volume m = persist::mount_volume(mo);
        rep.manifest_torn_slots +=
            static_cast<std::size_t>(m.report.manifest_torn_slots);
        if (!m.report.ok) {
            note = m.report.error;
            return false;
        }
        vol_ = std::move(m.vol);
        for (const persist::shard_census_entry& e : m.report.census) {
            rep.mount_intent_replayed += e.report.intent_replayed;
            rep.stale_disks_kicked +=
                e.report.stale_kicked + e.report.unreadable;
            rep.rebuilds_resumed += e.report.rebuilds_resumed;
        }
        note = std::to_string(m.report.shards_mounted) + "/" +
               std::to_string(m.report.shards_expected) + " shards";
        return true;
    }
    bool unmount() override { return vol_->unmount(); }

    std::uint32_t shard_count() const override { return cfg_.volume.shards; }
    raid::raid6_array& shard(std::uint32_t s) override {
        return vol_->shard(s);
    }
    bool read(std::size_t addr, std::span<std::byte> out) override {
        return vol_->read(addr, out);
    }
    bool write(std::size_t addr, std::span<const std::byte> in) override {
        return vol_->write(addr, in);
    }
    obs::hub& hub() override { return vol_->obs(); }
    void enable_trace() override { vol_->set_tracing(true); }
    std::string trace_json() const override { return vol_->trace_json(); }
    void fold_stats() override {
        const volume_stats s = vol_->stats();
        totals_.reads += s.reads;
        totals_.writes += s.writes;
        totals_.failed_reads += s.failed_reads;
        totals_.failed_writes += s.failed_writes;
        totals_.chunks_routed += s.chunks_routed;
        totals_.multi_shard_ops += s.multi_shard_ops;
        totals_.staged_bytes += s.staged_bytes;
        raid::accumulate(totals_.shard_total, s.shard_total);
    }

    /// Shard roles: concurrent faults land on *different* shards — A is
    /// rng-picked, B = A+1, C = A+2 (A when there are only two shards).
    raid::chaos_schedule schedule(util::xoshiro256& rng) override {
        const std::uint32_t n = cfg_.volume.shards;
        const auto a = static_cast<std::uint32_t>(rng.next_below(n));
        const std::uint32_t b = (a + 1) % n;
        const std::uint32_t c = n >= 3 ? (a + 2) % n : a;
        const volume_chaos_event_plan& ev = cfg_.events;
        const bool p = cfg_.persist_enabled;
        using kind = raid::chaos_event_kind;
        raid::chaos_schedule s;
        s.armed = {{kind::fail_stop, ev.fail_stop_a_at_op, a},
                   {kind::fail_stop, ev.fail_stop_b_at_op, b},
                   {kind::fail_slow, ev.fail_slow_at_op, c},
                   {kind::power_loss, ev.power_or_kill_at_op, b, p}};
        s.kill_mid_rebuild.at_op = p ? ev.kill_mid_rebuild_at_op : SIZE_MAX;
        s.kill_mid_rebuild.shard = a;
        s.fail_slow_recover_at_op = ev.fail_slow_recover_at_op;
        s.corrupt.every = ev.corrupt_every;
        s.fail_slow_base_us = ev.fail_slow_base_us;
        s.hot_spares = cfg_.volume.shard.hot_spares > 0;
        s.hedged_reads = cfg_.volume.shard.latency.hedged_reads;
        s.heal_on_read = false;
        s.checksum_sweep = false;
        return s;
    }

private:
    const volume_chaos_config& cfg_;
    volume_stats& totals_;
    std::unique_ptr<volume> vol_;
};

}  // namespace

volume_chaos_config default_volume_chaos_config(std::uint64_t seed,
                                                std::uint32_t shards,
                                                std::size_t ops) {
    volume_chaos_config cfg;
    cfg.seed = seed;
    cfg.ops = ops;
    cfg.volume.shards = shards;
    cfg.volume.chunk_stripes = 1;
    // The single-array geometry and trip calculus per shard: baseline
    // transients are retry-masked and never trip a disk; two spares per
    // shard, one for its planned fail-stop and one of margin.
    cfg.volume.shard = raid::default_chaos_config(seed, ops).array;
    cfg.events.fail_stop_a_at_op = ops / 6;
    cfg.events.kill_mid_rebuild_at_op = ops / 6 + 1;
    cfg.events.fail_slow_at_op = ops / 3;
    cfg.events.fail_stop_b_at_op = ops / 2;
    cfg.events.fail_slow_recover_at_op = ops * 7 / 10;
    cfg.events.power_or_kill_at_op = ops * 4 / 5;
    cfg.events.corrupt_every = 900;
    return cfg;
}

volume_chaos_report run_volume_chaos_campaign(const volume_chaos_config& cfg) {
    volume_chaos_report rep;
    volume_target target(cfg, rep.volume);
    raid::run_campaign(target, cfg, rep);
    return rep;
}

}  // namespace liberation::volume
