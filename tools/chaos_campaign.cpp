// Chaos campaign CLI: run a seeded fault-injection torture test of the
// RAID-6 array and print the report. The same seed replays the same
// campaign bit-for-bit, so a failing run's seed is a complete bug report.
//
// Usage:
//   chaos_campaign [--shards N] [--seed N] [--ops N] [--spares N]
//                  [--stripes N] [--queue-depth N] [--read-rate R]
//                  [--write-rate R] [--persist-dir DIR] [--sync-meta]
//                  [--fail-slow] [--metrics-out FILE] [--trace-out FILE]
//                  [--slo-read-p99-us N] [--listen PORT]
//                  [--serve-requests N] [--postmortem-dir DIR]
//                  [--json] [--quiet]
//
// --shards N (N >= 2) runs the *volume* campaign instead: one logical
// address space striped across N raid6_array shards, with different
// shards concurrently fail-stopped, corrupted, and (with --fail-slow)
// slow-grayed while a shadow-checked workload spans all of them.
// --spares/--stripes/--queue-depth then configure each shard, and
// --persist-dir creates the volume (manifest + one superblocked directory
// per shard) in DIR and adds whole-process kill-and-remount crash points
// recovered through mount_volume()'s census. The verdict line becomes
// "VOLUME_CHAOS_VERDICT ..." (same pass/counter contract). --trace-out
// then writes the *merged* volume trace: pid 1 is the volume dispatcher,
// pid 1+s+1 is shard s (process_name shard="s"), with flow arrows joining
// each host op's volume spans to the shard work they caused.
//
// --slo-read-p99-us N arms the SLO engine: at most 1% of host reads in
// any 1s (virtual-clock) window may exceed N microseconds, and no read
// may ever complete unrecoverable (zero budget). The liberation_slo_*
// burn-rate gauges land in the metrics exposition, the per-objective
// status lines in the report, and a violation at any evaluation fails
// the verdict (exit 1).
//
// --listen PORT serves the campaign's captured /metrics, /healthz, and
// /trace over HTTP on 127.0.0.1:PORT after the run (PORT 0 = kernel
// assigned; the bound port is printed to stderr). --serve-requests N
// bounds the server to N connections (0 = until killed).
//
// --postmortem-dir DIR sets LIBERATION_POSTMORTEM_DIR for the run: any
// failed verdict, refused mount, or first unrecoverable read auto-writes
// a postmortem bundle (MANIFEST.json, metrics.prom, flight_recorder.log,
// trace.json, slo.txt) into a fresh DIR/<reason>-<seq> subdirectory.
//
// --fail-slow enables the fail-slow phase of the plan: hedged reads are
// switched on, a random online disk is armed with a seeded constant
// latency profile a third of the way in (correct bytes, pathological
// timing), and it recovers two thirds of the way in. The acceptance then
// also requires the array to have hedged past the straggler (>= 1 hedge
// win), quarantined it (>= 1 slow trip), and un-quarantined it after the
// profile cleared (>= 1 slow recovery).
//
// --persist-dir DIR runs the campaign file-backed (one disk-NN.img per
// member in DIR) and adds the kill-and-remount phases: the process state
// is dropped mid-write, mid-rebuild, and mid-scrub, the files reopened,
// the array remounted, and the run continues — the acceptance then also
// requires every remount to succeed, the intent log to replay, and the
// interrupted rebuild to resume from its persisted watermark. --sync-meta
// fdatasyncs every superblock persist (machine-crash ordering; slower).
//
// Exit status 0 iff the campaign met its acceptance criteria: zero shadow
// mismatches, zero unrecovered stripes, no read ever served unverified
// bytes (every surviving block passes its CRC32C at the end), no rebuild
// session stalled, and every planned fault event (health trip, fail-stop,
// power loss, silent corruption + self-heal, checksum-metadata damage,
// degraded-stripe scrub repair, spare promotion + rebuild) fired.
// The penultimate output line is machine-readable: "CHAOS_VERDICT pass=..."
// with every invariant counter, for CI log scrapers. --json replaces that
// line with "CHAOS_VERDICT {...}" — one JSON object carrying the same
// counters plus per-phase timings and every latency-histogram snapshot.
//
// Observability exports: --metrics-out writes the campaign array's full
// Prometheus text exposition (counters, gauges, latency summaries for the
// write/read/rebuild/scrub paths) to FILE; --trace-out enables the span
// tracer and writes Chrome trace_event JSON loadable in chrome://tracing.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "liberation/obs/serve.hpp"
#include "liberation/obs/slo.hpp"
#include "liberation/raid/chaos.hpp"
#include "liberation/volume/chaos.hpp"

namespace {

using liberation::raid::chaos_config;
using liberation::raid::chaos_report;
using liberation::volume::volume_chaos_config;
using liberation::volume::volume_chaos_report;

/// The --slo-read-p99-us objectives: a read-latency quantile (1% of the
/// window may exceed the threshold) plus a zero-budget unrecoverable-read
/// gate, against the hub the campaign actually runs (array or volume).
std::vector<liberation::obs::slo_objective> make_slo_objectives(
    std::uint64_t read_p99_us, bool volume_mode) {
    using liberation::obs::slo_objective;
    std::vector<slo_objective> v;
    slo_objective lat;
    lat.name = "read_p99_us";
    lat.kind = slo_objective::kind_t::latency_quantile;
    lat.source = volume_mode ? "volume_read_ns" : "raid_read_ns";
    lat.threshold_ns = read_p99_us * 1000;
    lat.budget = 0.01;
    v.push_back(std::move(lat));
    slo_objective err;
    err.name = "unrecoverable_rate";
    err.kind = slo_objective::kind_t::event_ratio;
    if (volume_mode) {
        err.source = "volume_failed_reads_total";
        err.denominator = "volume_reads_total";
    } else {
        err.source = "raid_reads_unrecoverable_total";
        err.denominator = "io_reads_total";
    }
    err.budget = 0.0;
    v.push_back(std::move(err));
    return v;
}

/// --listen: serve the campaign's captured exports over HTTP until
/// `max_requests` connections (0 = until killed). The bound port goes to
/// stderr so stdout stays byte-deterministic per seed.
bool serve_captured(int port, std::size_t max_requests, std::string metrics,
                    std::string trace, bool pass) {
    liberation::obs::scrape_handlers h;
    h.metrics = [m = std::move(metrics)] { return m; };
    h.healthz = [pass] { return std::string(pass ? "ok\n" : "failing\n"); };
    h.trace = [t = std::move(trace)] {
        return t.empty() ? std::string("[]") : t;
    };
    liberation::obs::scrape_server srv;
    if (!srv.listen(static_cast<std::uint16_t>(port), std::move(h))) {
        std::fprintf(stderr, "chaos_campaign: cannot listen on port %d\n",
                     port);
        return false;
    }
    std::fprintf(stderr,
                 "chaos_campaign: serving /metrics /healthz /trace on "
                 "127.0.0.1:%u\n",
                 srv.port());
    srv.serve(max_requests);
    return true;
}

bool write_file(const char* path, const std::string& text) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "chaos_campaign: cannot open %s for writing\n",
                     path);
        return false;
    }
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    return ok;
}

/// One verdict field: its key in the text verdict line and in the JSON
/// verdict (nullptr = absent from that form).
struct verdict_field {
    const char* text;
    const char* json;
    std::uint64_t value;
    bool boolean = false;
};

/// One human-readable report line: "  group: key=value ...".
struct report_line {
    const char* group;
    std::vector<std::pair<const char*, std::uint64_t>> values;
};

/// Everything a target prints, as data: the report lines, then the
/// verdict fields rendered as the text or the JSON verdict.
struct verdict_layout {
    std::string header;
    std::vector<report_line> lines;
    const char* tag;  ///< "CHAOS_VERDICT" / "VOLUME_CHAOS_VERDICT"
    std::vector<verdict_field> fields;
    bool histograms;  ///< the JSON verdict carries histogram snapshots
};

verdict_layout array_layout(const chaos_config& cfg, const chaos_report& r) {
    const auto& st = r.stats;
    return {
        "chaos campaign: seed=" + std::to_string(cfg.seed) +
            " ops=" + std::to_string(r.ops) + " (reads=" +
            std::to_string(r.reads) + " writes=" + std::to_string(r.writes) +
            ")",
        {{"events",
          {{"fail-stops", r.injected_fail_stops},
           {"health-trips", r.health_trips},
           {"power-losses", r.power_losses},
           {"latent-injected", r.latent_errors_injected},
           {"corruptions-injected", r.corruptions_injected},
           {"checksum-flips", r.integrity_corruptions_injected}}},
         {"recovery",
          {{"spares-promoted", r.spares_promoted},
           {"rebuilds-completed", r.rebuilds_completed},
           {"stripes-resynced", r.resynced_stripes},
           {"resilver-healed", r.resilver_healed},
           {"rebuild-stalls", st.rebuild_sessions_stalled}}},
         {"io policy",
          {{"retries", r.io.retries},
           {"masked", r.io.transient_masked},
           {"exhausted", r.io.retries_exhausted},
           {"backoff-us", r.io.backoff_us}}},
         {"fail-slow",
          {{"injected", r.fail_slow_injected},
           {"deadline-exceeded", r.deadline_exceeded},
           {"hedged", r.hedged_reads},
           {"hedge-wins", r.hedge_wins},
           {"slow-trips", r.slow_trips},
           {"slow-recoveries", r.slow_recoveries}}},
         {"array",
          {{"degraded-stripe-reads", st.degraded_stripe_reads},
           {"degraded-element-reads", st.degraded_element_reads},
           {"media-errors-recovered", st.media_errors_recovered}}},
         {"integrity",
          {{"checksum-mismatches", st.checksum_mismatches},
           {"self-healed-reads", st.reads_self_healed},
           {"metadata-repaired", st.checksum_metadata_repaired},
           {"degraded-scrub-repairs", r.degraded_scrub_repairs},
           {"settle-scrub-healed", r.settle_scrub_healed}}},
         {"persistence",
          {{"kills", r.kills},
           {"remounts", r.remounts},
           {"mount-failures", r.mount_failures},
           {"intent-replayed", r.mount_intent_replayed},
           {"stale-kicked", r.stale_disks_kicked},
           {"rebuilds-resumed", r.rebuilds_resumed},
           {"remount-scrub-repairs", r.remount_scrub_repairs}}},
         {"verdict",
          {{"mismatches", r.mismatches},
           {"failed-reads", r.failed_reads},
           {"failed-writes", r.failed_writes},
           {"torn", r.final_torn},
           {"degraded", r.final_degraded},
           {"unrecovered", r.final_unrecovered},
           {"uncorrectable", r.scrub_uncorrectable},
           {"checksum-bad", r.final_checksum_bad},
           {"unrecoverable-reads", st.reads_unrecoverable}}}},
        "CHAOS_VERDICT",
        {{"pass", "pass", r.success, true},
         {nullptr, "slo_ok", r.slo_ok, true},
         {"seed", "seed", cfg.seed},
         {"ops", "ops", r.ops},
         {"mismatches", "mismatches", r.mismatches},
         {"failed_reads", "failed_reads", r.failed_reads},
         {"failed_writes", "failed_writes", r.failed_writes},
         {"torn", "torn", r.final_torn},
         {"degraded", "degraded", r.final_degraded},
         {"unrecovered", "unrecovered", r.final_unrecovered},
         {"uncorrectable", "uncorrectable", r.scrub_uncorrectable},
         {"checksum_bad", "checksum_bad", r.final_checksum_bad},
         {"stalled", "stalled", st.rebuild_sessions_stalled},
         {"unrecoverable_reads", "unrecoverable_reads", st.reads_unrecoverable},
         {"self_healed", "self_healed", st.reads_self_healed},
         {"corruptions", "corruptions", r.corruptions_injected},
         {"kills", "kills", r.kills},
         {"remounts", "remounts", r.remounts},
         {"mount_failures", "mount_failures", r.mount_failures},
         {"intent_replayed", "intent_replayed", r.mount_intent_replayed},
         {"stale_disks_kicked", "stale_disks_kicked", r.stale_disks_kicked},
         {"rebuilds_resumed", "rebuilds_resumed", r.rebuilds_resumed},
         {"fail_slow", "fail_slow_injected", r.fail_slow_injected},
         {"deadline_exceeded", "deadline_exceeded", r.deadline_exceeded},
         {"hedged", "hedged_reads", r.hedged_reads},
         {"hedge_wins", "hedge_wins", r.hedge_wins},
         {"slow_trips", "slow_trips", r.slow_trips},
         {"slow_recoveries", "slow_recoveries", r.slow_recoveries},
         {"slo_ok", nullptr, r.slo_ok, true}},
        /*histograms=*/true,
    };
}

verdict_layout volume_layout(const volume_chaos_config& cfg,
                             const volume_chaos_report& r) {
    const auto& st = r.stats;
    return {
        "volume chaos campaign: seed=" + std::to_string(cfg.seed) +
            " shards=" + std::to_string(cfg.volume.shards) +
            " ops=" + std::to_string(r.ops) + " (reads=" +
            std::to_string(r.reads) + " writes=" + std::to_string(r.writes) +
            ")",
        {{"routing",
          {{"chunks-routed", r.volume.chunks_routed},
           {"multi-shard-ops", r.volume.multi_shard_ops},
           {"staged-bytes", r.volume.staged_bytes}}},
         {"events",
          {{"fail-stops", r.injected_fail_stops},
           {"corruptions-injected", r.corruptions_injected},
           {"power-losses", r.power_losses},
           {"fail-slow-injected", r.fail_slow_injected}}},
         {"recovery",
          {{"spares-promoted", r.spares_promoted},
           {"rebuilds-completed", r.rebuilds_completed},
           {"stripes-resynced", r.resynced_stripes},
           {"resilver-healed", r.resilver_healed},
           {"settle-scrub-healed", r.settle_scrub_healed},
           {"rebuild-stalls", st.rebuild_sessions_stalled}}},
         {"fail-slow",
          {{"deadline-exceeded", r.deadline_exceeded},
           {"hedged", r.hedged_reads},
           {"hedge-wins", r.hedge_wins},
           {"slow-trips", r.slow_trips},
           {"slow-recoveries", r.slow_recoveries}}},
         {"persistence",
          {{"kills", r.kills},
           {"remounts", r.remounts},
           {"mount-failures", r.mount_failures},
           {"intent-replayed", r.mount_intent_replayed},
           {"rebuilds-resumed", r.rebuilds_resumed},
           {"manifest-torn-slots", r.manifest_torn_slots}}},
         {"verdict",
          {{"mismatches", r.mismatches},
           {"failed-reads", r.failed_reads},
           {"failed-writes", r.failed_writes},
           {"torn", r.final_torn},
           {"uncorrectable", r.scrub_uncorrectable},
           {"unrecoverable-reads", st.reads_unrecoverable},
           {"self-healed", st.reads_self_healed}}}},
        "VOLUME_CHAOS_VERDICT",
        {{"pass", "pass", r.success, true},
         {nullptr, "slo_ok", r.slo_ok, true},
         {"seed", "seed", cfg.seed},
         {"shards", "shards", cfg.volume.shards},
         {"ops", "ops", r.ops},
         {"mismatches", "mismatches", r.mismatches},
         {"failed_reads", "failed_reads", r.failed_reads},
         {"failed_writes", "failed_writes", r.failed_writes},
         {"torn", "torn", r.final_torn},
         {"uncorrectable", "uncorrectable", r.scrub_uncorrectable},
         {"stalled", "stalled", st.rebuild_sessions_stalled},
         {"unrecoverable_reads", "unrecoverable_reads", st.reads_unrecoverable},
         {"self_healed", "self_healed", st.reads_self_healed},
         {"fail_stops", "fail_stops", r.injected_fail_stops},
         {"corruptions", "corruptions", r.corruptions_injected},
         {"power_losses", "power_losses", r.power_losses},
         {"spares_promoted", "spares_promoted", r.spares_promoted},
         {"rebuilds_completed", "rebuilds_completed", r.rebuilds_completed},
         {"kills", "kills", r.kills},
         {"remounts", "remounts", r.remounts},
         {"mount_failures", "mount_failures", r.mount_failures},
         {"intent_replayed", "intent_replayed", r.mount_intent_replayed},
         {"rebuilds_resumed", "rebuilds_resumed", r.rebuilds_resumed},
         {"manifest_torn_slots", "manifest_torn_slots", r.manifest_torn_slots},
         {"fail_slow", "fail_slow_injected", r.fail_slow_injected},
         {"deadline_exceeded", "deadline_exceeded", r.deadline_exceeded},
         {"hedged", "hedged_reads", r.hedged_reads},
         {"hedge_wins", "hedge_wins", r.hedge_wins},
         {"slow_trips", "slow_trips", r.slow_trips},
         {"slow_recoveries", "slow_recoveries", r.slow_recoveries},
         {"slo_ok", nullptr, r.slo_ok, true},
         {nullptr, "multi_shard_ops", r.volume.multi_shard_ops},
         {nullptr, "chunks_routed", r.volume.chunks_routed}},
        /*histograms=*/false,
    };
}

/// Print the report, then the verdict: one machine-readable line for CI
/// log scrapers (text, or --json: one object that also carries the
/// per-phase timings and, for the array, every latency-histogram
/// snapshot), then the human PASS/FAIL. All JSON keys are fixed
/// identifiers, so no string escaping is needed.
void print_report(const verdict_layout& v, const chaos_report& rep,
                  bool json) {
    std::printf("%s\n", v.header.c_str());
    for (const report_line& l : v.lines) {
        std::printf("  %s:", l.group);
        for (const auto& [key, value] : l.values) {
            std::printf(" %s=%llu", key,
                        static_cast<unsigned long long>(value));
        }
        std::printf("\n");
    }
    // Wall-clock timings go to stderr: stdout must stay byte-identical
    // for a fixed seed (the determinism probe / CI scrapers cmp it).
    const auto& ph = rep.phases;
    std::fprintf(stderr,
                 "  phases: fill=%.3fs workload=%.3fs settle=%.3fs "
                 "settle-scrub=%.3fs verify=%.3fs final-scrub=%.3fs "
                 "mount-replay=%.3fs total=%.3fs\n",
                 ph.fill_s, ph.workload_s, ph.settle_s, ph.settle_scrub_s,
                 ph.final_verify_s, ph.final_scrub_s, ph.mount_replay_s,
                 ph.total_s());
    // Per-objective SLO status (only when objectives were configured);
    // deterministic on the virtual clock.
    if (!rep.slo_text.empty()) std::printf("%s", rep.slo_text.c_str());
    if (!json) {
        std::printf("%s", v.tag);
        for (const verdict_field& f : v.fields) {
            if (f.text == nullptr) continue;
            std::printf(" %s=%llu", f.text,
                        static_cast<unsigned long long>(f.value));
        }
        std::printf("\n%s\n", rep.success ? "PASS" : "FAIL");
        return;
    }
    std::printf("%s {", v.tag);
    for (const verdict_field& f : v.fields) {
        if (f.json == nullptr) continue;
        if (f.boolean) {
            std::printf("\"%s\":%s,", f.json, f.value != 0 ? "true" : "false");
        } else {
            std::printf("\"%s\":%llu,", f.json,
                        static_cast<unsigned long long>(f.value));
        }
    }
    std::printf("\"phases\":{\"fill_s\":%.6f,\"workload_s\":%.6f,"
                "\"settle_s\":%.6f,\"settle_scrub_s\":%.6f,"
                "\"final_verify_s\":%.6f,\"final_scrub_s\":%.6f,"
                "\"mount_replay_s\":%.6f,\"total_s\":%.6f}",
                ph.fill_s, ph.workload_s, ph.settle_s, ph.settle_scrub_s,
                ph.final_verify_s, ph.final_scrub_s, ph.mount_replay_s,
                ph.total_s());
    if (v.histograms) {
        std::printf(",\"histograms\":{");
        bool first = true;
        for (const auto& [name, snap] : rep.histograms) {
            if (snap.count == 0) continue;  // unexercised path; skip the noise
            std::printf("%s\"%s\":{\"count\":%llu,\"sum_ns\":%llu,"
                        "\"max_ns\":%llu,\"p50_ns\":%llu,\"p95_ns\":%llu,"
                        "\"p99_ns\":%llu}",
                        first ? "" : ",", name.c_str(),
                        static_cast<unsigned long long>(snap.count),
                        static_cast<unsigned long long>(snap.sum),
                        static_cast<unsigned long long>(snap.max),
                        static_cast<unsigned long long>(snap.p50),
                        static_cast<unsigned long long>(snap.p95),
                        static_cast<unsigned long long>(snap.p99));
            first = false;
        }
        std::printf("}");
    }
    std::printf("}\n%s\n", rep.success ? "PASS" : "FAIL");
}

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--shards N] [--seed N] [--ops N] [--spares N]\n"
                 "          [--stripes N] [--queue-depth N] [--read-rate R]\n"
                 "          [--write-rate R] [--persist-dir DIR] [--sync-meta]\n"
                 "          [--fail-slow] [--metrics-out FILE]\n"
                 "          [--trace-out FILE] [--slo-read-p99-us N]\n"
                 "          [--listen PORT] [--serve-requests N]\n"
                 "          [--postmortem-dir DIR] [--json] [--quiet]\n",
                 argv0);
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t seed = 42;
    std::size_t ops = 10'000;
    std::uint32_t shards = 1;
    bool quiet = false;
    bool json = false;
    bool fail_slow = false;
    const char* metrics_out = nullptr;
    const char* trace_out = nullptr;
    const char* persist_dir = nullptr;
    bool sync_meta = false;
    bool slo_enabled = false;
    std::uint64_t slo_read_p99_us = 0;
    int listen_port = -1;
    std::size_t serve_requests = 0;
    chaos_config cfg = liberation::raid::default_chaos_config(seed, ops);

    for (int i = 1; i < argc; ++i) {
        const auto arg = [&](const char* name) -> const char* {
            if (std::strcmp(argv[i], name) != 0) return nullptr;
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        if (const char* v = arg("--seed")) {
            seed = std::strtoull(v, nullptr, 0);
        } else if (const char* v = arg("--shards")) {
            shards = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0));
            if (shards == 0) usage(argv[0]);
        } else if (const char* v = arg("--ops")) {
            ops = std::strtoull(v, nullptr, 0);
        } else if (const char* v = arg("--spares")) {
            cfg.array.hot_spares = static_cast<std::uint32_t>(
                std::strtoul(v, nullptr, 0));
        } else if (const char* v = arg("--stripes")) {
            cfg.array.stripes = std::strtoull(v, nullptr, 0);
        } else if (const char* v = arg("--queue-depth")) {
            // Submission-queue depth of the array's aio engine: the window
            // (in stripes) of full-stripe writes, rebuild reads, and scrub
            // prefetch under the same fault campaign; 1 = one stripe.
            cfg.array.io_queue_depth = std::strtoull(v, nullptr, 0);
        } else if (const char* v = arg("--read-rate")) {
            cfg.transient_read_rate = std::strtod(v, nullptr);
        } else if (const char* v = arg("--write-rate")) {
            cfg.transient_write_rate = std::strtod(v, nullptr);
        } else if (const char* v = arg("--persist-dir")) {
            persist_dir = v;
            cfg.persist.enabled = true;
            cfg.persist.dir = v;
        } else if (std::strcmp(argv[i], "--sync-meta") == 0) {
            sync_meta = true;
            cfg.persist.sync_meta = true;
        } else if (std::strcmp(argv[i], "--fail-slow") == 0) {
            fail_slow = true;
        } else if (const char* v = arg("--metrics-out")) {
            metrics_out = v;
        } else if (const char* v = arg("--trace-out")) {
            trace_out = v;
        } else if (const char* v = arg("--slo-read-p99-us")) {
            slo_enabled = true;
            slo_read_p99_us = std::strtoull(v, nullptr, 0);
        } else if (const char* v = arg("--listen")) {
            listen_port = static_cast<int>(std::strtol(v, nullptr, 0));
            if (listen_port < 0 || listen_port > 65535) usage(argv[0]);
        } else if (const char* v = arg("--serve-requests")) {
            serve_requests = std::strtoull(v, nullptr, 0);
        } else if (const char* v = arg("--postmortem-dir")) {
            // The library's automatic dump points are env-gated; the flag
            // is the CLI spelling of that contract.
            setenv("LIBERATION_POSTMORTEM_DIR", v, 1);
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else {
            usage(argv[0]);
        }
    }
    // Options shared by both targets.
    cfg.seed = seed;
    cfg.ops = ops;
    cfg.trace = trace_out != nullptr;
    if (!quiet) {
        cfg.log = [](const std::string& msg) {
            std::printf("  [event] %s\n", msg.c_str());
        };
    }
    const bool volume_mode = shards >= 2;
    if (slo_enabled) {
        cfg.slo = make_slo_objectives(slo_read_p99_us, volume_mode);
    }

    chaos_report rep;
    if (volume_mode) {
        // Multi-shard route: the volume campaign. Per-shard knobs reuse
        // the single-array flags (each shard gets the same geometry).
        volume_chaos_config vcfg =
            liberation::volume::default_volume_chaos_config(seed, shards,
                                                            ops);
        static_cast<liberation::raid::chaos_options&>(vcfg) = cfg;
        vcfg.volume.shard.hot_spares = cfg.array.hot_spares;
        vcfg.volume.shard.stripes = cfg.array.stripes;
        vcfg.volume.shard.io_queue_depth = cfg.array.io_queue_depth;
        if (fail_slow) {
            vcfg.volume.shard.latency.hedged_reads = true;
        } else {
            // Without hedging there is nothing to observe the straggler
            // with; don't bother arming it.
            vcfg.events.fail_slow_at_op = ops;
            vcfg.events.fail_slow_recover_at_op = ops;
        }
        if (persist_dir != nullptr) {
            vcfg.persist_enabled = true;
            vcfg.dir = persist_dir;
            vcfg.sync_meta = sync_meta;
        }
        const volume_chaos_report vrep =
            liberation::volume::run_volume_chaos_campaign(vcfg);
        print_report(volume_layout(vcfg, vrep), vrep, json);
        rep = vrep;
    } else {
        // Default event plan scales with the op count so short runs still
        // exercise every fault class.
        cfg.events.fail_stop_at_op = ops / 5;
        cfg.events.health_storm_at_op = ops / 2;
        cfg.events.power_loss_at_op = (ops * 4) / 5;
        if (fail_slow) {
            // The straggler arms in the quiet stretch after the fail-stop's
            // rebuild drains and recovers before the power loss, so
            // hedging, quarantine, and un-quarantine all run within one
            // campaign.
            cfg.array.latency.hedged_reads = true;
            cfg.events.fail_slow_at_op = ops / 3;
            cfg.events.fail_slow_recover_at_op = (ops * 2) / 3;
        }
        if (cfg.persist.enabled) {
            // Crash points interleave with the fault plan: the mid-rebuild
            // kill arms right after the fail-stop (while its spare's
            // rebuild is in flight), the mid-write kill in the quiet
            // stretch between the storm and the power loss, the mid-scrub
            // kill near the end.
            cfg.persist.kill_mid_rebuild_at_op = ops / 5 + 1;
            cfg.persist.kill_mid_write_at_op = (ops * 7) / 10;
            cfg.persist.kill_mid_scrub_at_op = (ops * 9) / 10;
        }
        rep = liberation::raid::run_chaos_campaign(cfg);
        print_report(array_layout(cfg, rep), rep, json);
    }

    bool exports_ok = true;
    if (metrics_out != nullptr) {
        exports_ok = write_file(metrics_out, rep.metrics_text) && exports_ok;
    }
    if (trace_out != nullptr) {
        exports_ok = write_file(trace_out, rep.trace_json) && exports_ok;
    }
    if (listen_port >= 0) {
        exports_ok = serve_captured(listen_port, serve_requests,
                                    rep.metrics_text, rep.trace_json,
                                    rep.success) &&
                     exports_ok;
    }
    return rep.success && exports_ok ? 0 : 1;
}
