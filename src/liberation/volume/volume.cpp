#include "liberation/volume/volume.hpp"

#include <algorithm>
#include <cstring>

#include "liberation/raid/io_policy.hpp"
#include "liberation/util/assert.hpp"

namespace liberation::volume {

namespace {

void validate_config(const volume_config& cfg) {
    LIBERATION_EXPECTS(cfg.shards >= 1);
    LIBERATION_EXPECTS(cfg.shards <= persist::manifest_max_shards);
    LIBERATION_EXPECTS(cfg.chunk_stripes >= 1);
    LIBERATION_EXPECTS(cfg.shard.stripes % cfg.chunk_stripes == 0);
    // The volume owns the shards' aio pools; a caller-supplied one would
    // be shared across shards and defeat the per-shard queue isolation.
    LIBERATION_EXPECTS(cfg.shard.io_workers == nullptr);
}

}  // namespace

void volume::init_common(const volume_config& cfg) {
    // Multi-shard ops always fan out: one single-thread dispatcher per
    // shard. A one-shard volume never fans out, so it needs none.
    if (cfg.shards > 1) {
        dispatch_pools_.reserve(cfg.shards);
        for (std::uint32_t s = 0; s < cfg.shards; ++s) {
            dispatch_pools_.push_back(std::make_unique<util::thread_pool>(1));
        }
    }
    chunk_bytes_ = cfg.chunk_stripes * shards_[0]->map().stripe_data_size();
    plans_.resize(cfg.shards);
    results_.resize(cfg.shards);
    if (cfg.shard.obs_virtual_time) {
        obs_.set_clock(raid::virtual_clock_now_ns, &shards_[0]->clock());
    }
    init_obs();
}

volume::volume(const volume_config& cfg) {
    validate_config(cfg);
    if (cfg.io_workers_per_shard > 0) {
        io_pools_.reserve(cfg.shards);
        for (std::uint32_t s = 0; s < cfg.shards; ++s) {
            io_pools_.push_back(
                std::make_unique<util::thread_pool>(cfg.io_workers_per_shard));
        }
    }
    shards_.reserve(cfg.shards);
    for (std::uint32_t s = 0; s < cfg.shards; ++s) {
        raid::array_config sc = cfg.shard;
        if (!io_pools_.empty()) sc.io_workers = io_pools_[s].get();
        shards_.push_back(std::make_unique<raid::raid6_array>(sc));
    }
    init_common(cfg);
}

volume::volume(const volume_config& cfg,
               std::vector<std::unique_ptr<raid::raid6_array>> arrays) {
    validate_config(cfg);
    // Mounted shards were built by persist::mount_array, before the
    // volume (and any pool it could own) exists; they drive their queue
    // pairs inline.
    LIBERATION_EXPECTS(cfg.io_workers_per_shard == 0);
    LIBERATION_EXPECTS(arrays.size() == cfg.shards);
    for (const auto& a : arrays) {
        LIBERATION_EXPECTS(a != nullptr);
        LIBERATION_EXPECTS(a->capacity() == arrays.front()->capacity());
        LIBERATION_EXPECTS(a->map().stripe_data_size() ==
                           arrays.front()->map().stripe_data_size());
    }
    shards_ = std::move(arrays);
    init_common(cfg);
}

volume::~volume() = default;

void volume::init_obs() {
    obs::registry& reg = obs_.metrics();
    read_ns_ = &reg.get_histogram("volume_read_ns",
                                  "volume host read latency (ns)");
    write_ns_ = &reg.get_histogram("volume_write_ns",
                                   "volume host write latency (ns)");
    obs_.add_collector([this] {
        obs::registry& r = obs_.metrics();
        r.get_counter("volume_reads_total", "host reads served by the volume")
            .mirror(reads_.load(std::memory_order_relaxed));
        r.get_counter("volume_writes_total", "host writes served by the volume")
            .mirror(writes_.load(std::memory_order_relaxed));
        r.get_counter("volume_failed_reads_total", "host reads a shard refused")
            .mirror(failed_reads_.load(std::memory_order_relaxed));
        r.get_counter("volume_failed_writes_total", "host writes a shard refused")
            .mirror(failed_writes_.load(std::memory_order_relaxed));
        r.get_counter("volume_chunks_routed_total", "placement chunks touched")
            .mirror(chunks_routed_.load(std::memory_order_relaxed));
        r.get_counter("volume_multi_shard_ops_total", "host ops spanning > 1 shard")
            .mirror(multi_shard_ops_.load(std::memory_order_relaxed));
        r.get_counter("volume_staged_bytes_total",
                      "bytes bounced through the gather/scatter buffer")
            .mirror(staged_bytes_.load(std::memory_order_relaxed));
        for (std::uint32_t s = 0; s < shard_count(); ++s) {
            const raid::array_stats st = shards_[s]->stats();
            const std::string label = "shard=\"" + std::to_string(s) + "\"";
            r.get_labeled_counter("shard_full_stripe_writes_total", label,
                                  "full-stripe writes per shard")
                .mirror(st.full_stripe_writes);
            r.get_labeled_counter("shard_small_writes_total", label,
                                  "read-modify-write small writes per shard")
                .mirror(st.small_writes);
            r.get_labeled_counter("shard_degraded_stripe_reads_total", label,
                                  "degraded full-stripe decodes per shard")
                .mirror(st.degraded_stripe_reads);
            r.get_labeled_counter("shard_checksum_mismatches_total", label,
                                  "checksum-failing blocks per shard")
                .mirror(st.checksum_mismatches);
            r.get_labeled_counter("shard_spares_promoted_total", label,
                                  "hot spares promoted per shard")
                .mirror(st.spares_promoted);
            r.get_labeled_counter("shard_rebuilds_completed_total", label,
                                  "background rebuild sessions per shard")
                .mirror(st.rebuilds_completed);
            r.get_labeled_gauge("shard_failed_disks", label,
                                "disks currently failed per shard")
                .set(static_cast<std::int64_t>(
                    shards_[s]->failed_disk_count()));
            r.get_labeled_gauge("shard_rebuild_stripes_remaining", label,
                                "background rebuild backlog per shard")
                .set(static_cast<std::int64_t>(
                    shards_[s]->rebuild_stripes_remaining()));
        }
    });
}

void volume::set_tracing(bool on) noexcept {
    obs_.trace().enable(on);
    for (auto& sh : shards_) sh->obs().trace().enable(on);
}

std::string volume::trace_json() const {
    std::vector<obs::trace_part> parts;
    parts.reserve(shards_.size() + 1);
    parts.push_back({"volume", &obs_.trace()});
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
        parts.push_back({"shard=\"" + std::to_string(s) + "\"",
                         &shards_[s]->obs().trace()});
    }
    return obs::merged_trace_json(parts);
}

extent_location volume::locate(std::size_t addr) const noexcept {
    const std::size_t chunk = addr / chunk_bytes_;
    const std::size_t in_chunk = addr % chunk_bytes_;
    extent_location loc;
    loc.shard = static_cast<std::uint32_t>(chunk % shards_.size());
    loc.addr = (chunk / shards_.size()) * chunk_bytes_ + in_chunk;
    return loc;
}

std::uint32_t volume::plan(std::size_t addr, std::size_t len) {
    const std::size_t n = shards_.size();
    for (shard_plan& p : plans_) {
        p.touched = false;
        p.pieces.clear();
    }
    std::uint32_t touched = 0;
    std::uint64_t chunks = 0;
    std::size_t pos = addr;
    std::size_t remaining = len;
    while (remaining > 0) {
        const std::size_t chunk = pos / chunk_bytes_;
        const std::size_t in_chunk = pos % chunk_bytes_;
        const std::size_t take = std::min(remaining, chunk_bytes_ - in_chunk);
        const auto s = static_cast<std::uint32_t>(chunk % n);
        const std::size_t local = (chunk / n) * chunk_bytes_ + in_chunk;
        const std::size_t host_off = pos - addr;
        shard_plan& p = plans_[s];
        if (!p.touched) {
            p.touched = true;
            p.lo = local;
            p.hi = local + take;
            p.pieces.push_back({host_off, local, take});
            ++touched;
        } else if (!p.pieces.empty() &&
                   p.pieces.back().local_off + p.pieces.back().len == local &&
                   p.pieces.back().host_off + p.pieces.back().len ==
                       host_off) {
            // Consecutive chunks of the same shard with a contiguous host
            // range (the shards == 1 case) extend the piece in place.
            p.pieces.back().len += take;
            p.hi = local + take;
        } else {
            p.pieces.push_back({host_off, local, take});
            p.hi = local + take;
        }
        pos += take;
        remaining -= take;
        ++chunks;
    }
    chunks_routed_.fetch_add(chunks, std::memory_order_relaxed);
    return touched;
}

bool volume::dispatch(const std::function<bool(std::uint32_t)>& op) {
    const auto n = static_cast<std::uint32_t>(shards_.size());
    std::uint32_t touched = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
        if (plans_[s].touched) ++touched;
    }
    bool ok = true;
    if (touched > 1) {
        // The host op's causal context rides into each dispatcher thread
        // explicitly (thread_local does not cross the pool hop): every
        // fan-out leg gets its own volume.shard_dispatch span under the
        // host op, and everything the shard records lands under that leg.
        const obs::trace_context tctx = obs::current_trace();
        const bool tracing = obs_.trace().enabled() && tctx.trace_id != 0;
        for (std::uint32_t s = 0; s < n; ++s) {
            if (!plans_[s].touched) continue;
            dispatch_pools_[s]->submit([this, &op, s, tctx, tracing] {
                const std::uint64_t leg_span =
                    tracing ? obs::next_span_id() : 0;
                obs::trace_scope scope(
                    tracing ? obs::trace_context{tctx.trace_id, leg_span}
                            : tctx);
                const std::uint64_t t0 = obs_.now_ns();
                const bool r = op(s);
                if (tracing) {
                    const std::uint64_t t1 = obs_.now_ns();
                    obs_.trace().record_ex("volume.shard_dispatch", "volume",
                                           t0, t1 >= t0 ? t1 - t0 : 0, tctx,
                                           leg_span);
                }
                results_[s] = r ? 1 : 0;
            });
        }
        for (std::uint32_t s = 0; s < n; ++s) {
            if (plans_[s].touched) dispatch_pools_[s]->wait_idle();
        }
        for (std::uint32_t s = 0; s < n; ++s) {
            if (plans_[s].touched) ok = ok && results_[s] != 0;
        }
    } else {
        for (std::uint32_t s = 0; s < n; ++s) {
            if (plans_[s].touched) ok = op(s) && ok;
        }
    }
    return ok;
}

bool volume::read(std::size_t addr, std::span<std::byte> out) {
    LIBERATION_EXPECTS(addr + out.size() <= capacity());
    obs::timed_span span(obs_, read_ns_, "volume_read", "volume");
    reads_.fetch_add(1, std::memory_order_relaxed);
    if (out.empty()) return true;
    const std::uint32_t touched = plan(addr, out.size());
    if (touched > 1) {
        multi_shard_ops_.fetch_add(1, std::memory_order_relaxed);
    }
    // Hand every shard's staging region out of one buffer sized up front
    // (the dispatcher threads fill disjoint slices concurrently).
    std::size_t stage_total = 0;
    for (shard_plan& p : plans_) {
        if (p.touched && p.pieces.size() > 1) {
            p.stage_off = stage_total;
            stage_total += p.hi - p.lo;
        }
    }
    if (stage_total > staging_.size()) staging_.resize(stage_total);
    staged_bytes_.fetch_add(stage_total, std::memory_order_relaxed);

    const bool ok = dispatch([&](std::uint32_t s) {
        shard_plan& p = plans_[s];
        if (p.pieces.size() == 1) {
            return shards_[s]->read(
                p.lo, out.subspan(p.pieces[0].host_off, p.pieces[0].len));
        }
        // Boundary-straddling extent: one gapless shard read into the
        // staging slice, then scatter the pieces back to the host buffer.
        const std::span<std::byte> stage =
            std::span<std::byte>(staging_).subspan(p.stage_off, p.hi - p.lo);
        if (!shards_[s]->read(p.lo, stage)) return false;
        for (const shard_plan::piece& pc : p.pieces) {
            std::memcpy(out.data() + pc.host_off,
                        stage.data() + (pc.local_off - p.lo), pc.len);
        }
        return true;
    });
    if (!ok) failed_reads_.fetch_add(1, std::memory_order_relaxed);
    return ok;
}

bool volume::write(std::size_t addr, std::span<const std::byte> in) {
    LIBERATION_EXPECTS(addr + in.size() <= capacity());
    obs::timed_span span(obs_, write_ns_, "volume_write", "volume");
    writes_.fetch_add(1, std::memory_order_relaxed);
    if (in.empty()) return true;
    const std::uint32_t touched = plan(addr, in.size());
    if (touched > 1) {
        multi_shard_ops_.fetch_add(1, std::memory_order_relaxed);
    }
    std::size_t stage_total = 0;
    for (shard_plan& p : plans_) {
        if (p.touched && p.pieces.size() > 1) {
            p.stage_off = stage_total;
            stage_total += p.hi - p.lo;
        }
    }
    if (stage_total > staging_.size()) staging_.resize(stage_total);
    staged_bytes_.fetch_add(stage_total, std::memory_order_relaxed);

    // Gather on the caller's thread (cheap memcpy), write on the
    // dispatcher threads (the expensive parity + disk work).
    for (shard_plan& p : plans_) {
        if (!p.touched || p.pieces.size() == 1) continue;
        std::byte* stage = staging_.data() + p.stage_off;
        for (const shard_plan::piece& pc : p.pieces) {
            std::memcpy(stage + (pc.local_off - p.lo),
                        in.data() + pc.host_off, pc.len);
        }
    }
    const bool ok = dispatch([&](std::uint32_t s) {
        shard_plan& p = plans_[s];
        if (p.pieces.size() == 1) {
            return shards_[s]->write(
                p.lo, in.subspan(p.pieces[0].host_off, p.pieces[0].len));
        }
        const std::span<const std::byte> stage =
            std::span<const std::byte>(staging_).subspan(p.stage_off,
                                                         p.hi - p.lo);
        return shards_[s]->write(p.lo, stage);
    });
    if (!ok) failed_writes_.fetch_add(1, std::memory_order_relaxed);
    return ok;
}

volume_stats volume::stats() const {
    volume_stats vs;
    vs.reads = reads_.load(std::memory_order_relaxed);
    vs.writes = writes_.load(std::memory_order_relaxed);
    vs.failed_reads = failed_reads_.load(std::memory_order_relaxed);
    vs.failed_writes = failed_writes_.load(std::memory_order_relaxed);
    vs.chunks_routed = chunks_routed_.load(std::memory_order_relaxed);
    vs.multi_shard_ops = multi_shard_ops_.load(std::memory_order_relaxed);
    vs.staged_bytes = staged_bytes_.load(std::memory_order_relaxed);
    for (const auto& sh : shards_) accumulate(vs.shard_total, sh->stats());
    return vs;
}

std::uint32_t volume::failed_disk_count() const noexcept {
    std::uint32_t n = 0;
    for (const auto& sh : shards_) n += sh->failed_disk_count();
    return n;
}

bool volume::rebuild_active() const noexcept {
    for (const auto& sh : shards_) {
        if (sh->rebuild_active()) return true;
    }
    return false;
}

std::size_t volume::service_background_rebuild(
    std::size_t max_stripes_per_shard) {
    std::size_t total = 0;
    for (auto& sh : shards_) {
        total += sh->service_background_rebuild(max_stripes_per_shard);
    }
    return total;
}

void volume::drain_background_rebuilds() {
    for (auto& sh : shards_) sh->drain_background_rebuild();
}

void volume::attach_manifest(std::string dir, persist::manifest m,
                             bool sync) {
    manifest_dir_ = std::move(dir);
    manifest_ = std::move(m);
    manifest_sync_ = sync;
}

bool volume::unmount() {
    if (!manifest_) return true;
    bool ok = true;
    for (auto& sh : shards_) ok = sh->unmount() && ok;
    manifest_->clean = true;
    ok = persist::persist_manifest(manifest_dir_, *manifest_, manifest_sync_)
         && ok;
    manifest_.reset();
    return ok;
}

}  // namespace liberation::volume
