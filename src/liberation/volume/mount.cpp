#include "liberation/volume/mount.hpp"

#include <filesystem>
#include <random>
#include <system_error>

#include "liberation/obs/flight_recorder.hpp"
#include "liberation/obs/postmortem.hpp"
#include "liberation/raid/persist/store.hpp"
#include "liberation/util/assert.hpp"

namespace liberation::volume::persist {

namespace {

/// Whole-set shard census for postmortem bundles: one line per shard so
/// the operator sees which member sank the mount, not just the first.
std::string volume_census_text(const volume_mount_report& rep) {
    std::string s = "volume mount ok=" + std::to_string(rep.ok ? 1 : 0) + '\n';
    if (!rep.error.empty()) s += "error: " + rep.error + '\n';
    s += "shards_expected=" + std::to_string(rep.shards_expected) + '\n';
    s += "shards_mounted=" + std::to_string(rep.shards_mounted) + '\n';
    s += "manifest_torn_slots=" + std::to_string(rep.manifest_torn_slots) +
         '\n';
    s += "unclean=" + std::to_string(rep.unclean ? 1 : 0) + '\n';
    for (const shard_census_entry& e : rep.census) {
        s += "shard " + std::to_string(e.shard) +
             ": dir_present=" + std::to_string(e.dir_present ? 1 : 0) +
             " foreign=" + std::to_string(e.foreign ? 1 : 0) +
             " geometry_mismatch=" +
             std::to_string(e.geometry_mismatch ? 1 : 0) +
             " mounted=" + std::to_string(e.mounted ? 1 : 0);
        if (!e.report.error.empty()) s += " error=\"" + e.report.error + '"';
        s += '\n';
    }
    return s;
}

void note_volume_mount_refused(const volume_mount_report& rep) {
    obs::flight_recorder::instance().record(obs::fr_kind::mount_refused, 0,
                                            rep.shards_mounted,
                                            rep.shards_expected);
    obs::postmortem_bundle b;
    b.census_text = volume_census_text(rep);
    (void)obs::auto_postmortem("mount_refused", nullptr, std::move(b));
}

std::uint64_t random_uuid() {
    std::random_device rd;
    std::uint64_t u = (static_cast<std::uint64_t>(rd()) << 32) | rd();
    return u ? u : 1;
}

/// Deterministic per-shard UUID stream off the volume UUID (golden-ratio
/// mix, same recipe the chaos campaigns use for seed derivation).
std::uint64_t shard_uuid(std::uint64_t volume_uuid, std::uint32_t s) {
    const std::uint64_t u =
        volume_uuid ^ (0x9e3779b97f4a7c15ULL * (std::uint64_t{s} + 1));
    return u ? u : 1;
}

bool geometry_matches(const raid::persist::superblock& sb,
                      const manifest& m) {
    return sb.k == m.k && sb.p == m.p && sb.element_size == m.element_size &&
           sb.stripes == m.stripes && sb.sector_size == m.sector_size &&
           sb.layout == m.layout;
}

}  // namespace

std::unique_ptr<volume> create_volume(const volume_config& cfg,
                                      const volume_store_config& scfg,
                                      std::uint64_t uuid) {
    LIBERATION_EXPECTS(cfg.shards >= 1 &&
                       cfg.shards <= manifest_max_shards);
    LIBERATION_EXPECTS(cfg.io_workers_per_shard == 0);
    if (uuid == 0) uuid = random_uuid();

    std::error_code ec;
    std::filesystem::create_directories(scfg.dir, ec);

    manifest m;
    m.seq = 1;
    m.volume_uuid = uuid;
    m.clean = false;  // live until unmount()
    m.shards = cfg.shards;
    m.chunk_stripes = cfg.chunk_stripes;
    m.k = cfg.shard.k;
    m.p = cfg.shard.p;
    m.element_size = cfg.shard.element_size;
    m.stripes = cfg.shard.stripes;
    m.sector_size = cfg.shard.sector_size;
    m.layout = static_cast<std::uint32_t>(cfg.shard.layout);

    std::vector<std::unique_ptr<raid::raid6_array>> arrays;
    arrays.reserve(cfg.shards);
    for (std::uint32_t s = 0; s < cfg.shards; ++s) {
        raid::persist::store_config sc;
        sc.dir = shard_dir(scfg.dir, s);
        sc.direct_io = scfg.direct_io;
        sc.sync_meta = scfg.sync_meta;
        sc.sync_data = scfg.sync_data;
        m.shard_uuids.push_back(shard_uuid(uuid, s));
        auto arr = raid::persist::create_array(cfg.shard, sc,
                                               m.shard_uuids.back());
        if (!arr) return nullptr;
        // The manifest must record the p the array actually chose when
        // cfg asked for the default (p = 0 -> smallest odd prime >= k).
        if (s == 0) m.p = arr->map().rows();
        arrays.push_back(std::move(arr));
    }
    if (!create_manifest(scfg.dir, m, scfg.sync_meta)) return nullptr;

    auto vol = std::make_unique<volume>(cfg, std::move(arrays));
    vol->attach_manifest(scfg.dir, std::move(m), scfg.sync_meta);
    return vol;
}

mounted_volume mount_volume(const volume_mount_options& opts) {
    mounted_volume out;
    volume_mount_report& rep = out.report;

    manifest_probe probe = load_manifest(opts.store.dir);
    rep.manifest_torn_slots = probe.torn_slots;
    rep.manifest_fell_back = probe.fell_back;
    if (!probe.file_present) {
        rep.error = "volume manifest missing: " +
                    manifest_path(opts.store.dir);
        note_volume_mount_refused(rep);
        return out;
    }
    if (!probe.m) {
        rep.error = "volume manifest unreadable (both slots torn): " +
                    manifest_path(opts.store.dir);
        note_volume_mount_refused(rep);
        return out;
    }
    manifest m = std::move(*probe.m);
    rep.unclean = !m.clean;
    rep.shards_expected = m.shards;
    rep.census.resize(m.shards);

    // ---- read-only census: nothing is opened for writing until the
    // whole shard set checks out against the manifest ------------------
    bool census_ok = true;
    for (std::uint32_t s = 0; s < m.shards; ++s) {
        shard_census_entry& e = rep.census[s];
        e.shard = s;
        const std::vector<raid::persist::disk_probe> disks =
            raid::persist::probe_dir(shard_dir(opts.store.dir, s));
        e.dir_present = !disks.empty();
        if (!e.dir_present) {
            census_ok = false;
            if (rep.error.empty()) {
                rep.error = "shard directory missing: " +
                            shard_dir(opts.store.dir, s);
            }
            continue;
        }
        for (const raid::persist::disk_probe& d : disks) {
            if (!d.sb) continue;
            if (d.sb->array_uuid != m.shard_uuids[s]) {
                e.foreign = true;
            } else if (!geometry_matches(*d.sb, m)) {
                e.geometry_mismatch = true;
            }
        }
        if (e.foreign || e.geometry_mismatch) {
            census_ok = false;
            if (rep.error.empty()) {
                rep.error =
                    std::string(e.foreign ? "foreign shard"
                                          : "shard geometry mismatch") +
                    " in " + shard_dir(opts.store.dir, s);
            }
        }
    }

    // ---- assemble every shard (census detail is filled in even when an
    // earlier shard already failed, so the operator sees the whole set) -
    std::vector<std::unique_ptr<raid::raid6_array>> arrays(m.shards);
    std::uint32_t mounted = 0;
    if (census_ok) {
        for (std::uint32_t s = 0; s < m.shards; ++s) {
            shard_census_entry& e = rep.census[s];
            raid::persist::mount_options mo;
            static_cast<raid::persist::mount_policy&>(mo) = opts;
            mo.store.dir = shard_dir(opts.store.dir, s);
            mo.store.direct_io = opts.store.direct_io;
            mo.store.sync_meta = opts.store.sync_meta;
            mo.store.sync_data = opts.store.sync_data;
            raid::persist::mounted_array ma = raid::persist::mount_array(mo);
            e.report = ma.report;
            e.mounted = ma.report.ok;
            if (ma.report.ok) {
                arrays[s] = std::move(ma.array);
                ++mounted;
            } else if (rep.error.empty()) {
                rep.error = "shard " + std::to_string(s) +
                            " failed to mount: " + ma.report.error;
            }
        }
    }
    rep.shards_mounted = mounted;
    if (!census_ok || mounted != m.shards) {
        note_volume_mount_refused(rep);
        return out;
    }

    volume_config cfg;
    cfg.shards = m.shards;
    cfg.chunk_stripes = m.chunk_stripes;
    cfg.shard.k = m.k;
    cfg.shard.p = m.p;
    cfg.shard.element_size = m.element_size;
    cfg.shard.stripes = m.stripes;
    cfg.shard.sector_size = m.sector_size;
    cfg.shard.layout = static_cast<raid::parity_layout>(m.layout);
    cfg.shard.obs_virtual_time = opts.obs_virtual_time;
    cfg.io_workers_per_shard = 0;

    // Activate: the on-disk manifest says "live" from here until a clean
    // volume::unmount() stamps it clean again.
    m.clean = false;
    if (!persist_manifest(opts.store.dir, m, opts.store.sync_meta)) {
        rep.error = "could not persist volume manifest";
        note_volume_mount_refused(rep);
        return out;
    }
    out.vol = std::make_unique<volume>(cfg, std::move(arrays));
    out.vol->attach_manifest(opts.store.dir, std::move(m),
                             opts.store.sync_meta);
    rep.ok = true;
    obs::flight_recorder::instance().record(obs::fr_kind::mount_ok,
                                            out.vol->obs().now_ns(),
                                            rep.shards_mounted, 0);
    return out;
}

}  // namespace liberation::volume::persist
