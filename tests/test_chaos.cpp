// Chaos campaign: the acceptance test of the fault-tolerance and
// integrity layers. A seeded campaign interleaves 10k random reads/writes
// with transient faults on every disk, one health-tripped disk, one
// injected fail-stop, latent sector errors, a mid-write power loss,
// periodic silent multi-column bit-flips, and checksum-metadata damage —
// while two hot spares absorb the failures and background rebuilds race
// the workload. Every read is verified against a shadow copy; no host
// read may ever return bytes that fail their checksum; the whole run must
// replay bit-for-bit from its seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "liberation/obs/flight_recorder.hpp"
#include "liberation/raid/chaos.hpp"

namespace {

using namespace liberation::raid;

TEST(Chaos, AcceptanceCampaignRunsClean) {
    const chaos_config cfg = default_chaos_config(42, 10'000);
    const chaos_report rep = run_chaos_campaign(cfg);

    // Zero corruption anywhere...
    EXPECT_EQ(rep.mismatches, 0u);
    EXPECT_EQ(rep.failed_reads, 0u);
    EXPECT_EQ(rep.failed_writes, 0u);
    EXPECT_EQ(rep.final_torn, 0u);
    EXPECT_EQ(rep.final_degraded, 0u);
    EXPECT_EQ(rep.final_unrecovered, 0u);
    EXPECT_EQ(rep.scrub_uncorrectable, 0u);
    EXPECT_EQ(rep.final_checksum_bad, 0u);
    EXPECT_EQ(rep.stats.reads_unrecoverable, 0u);
    EXPECT_EQ(rep.stats.rebuild_sessions_stalled, 0u);

    // ...while the full fault plan actually fired.
    EXPECT_EQ(rep.ops, 10'000u);
    EXPECT_EQ(rep.injected_fail_stops, 1u);
    EXPECT_GE(rep.health_trips, 1u);
    EXPECT_EQ(rep.power_losses, 1u);
    EXPECT_GE(rep.latent_errors_injected, 1u);
    EXPECT_GE(rep.corruptions_injected, 1u);
    EXPECT_GE(rep.integrity_corruptions_injected, 1u);
    EXPECT_EQ(rep.spares_promoted, 2u);  // fail-stop + health trip
    EXPECT_GE(rep.rebuilds_completed, 2u);
    EXPECT_GT(rep.io.transient_masked, 0u);  // retries actually earned keep

    // The integrity layer earned its keep: bit-flips were caught in-line
    // (self-healed reads), stale CRC metadata was refreshed, and the
    // degraded-stripe scrub repaired corruption the seed scrubber skipped.
    EXPECT_GE(rep.stats.reads_self_healed, 1u);
    EXPECT_GE(rep.stats.checksum_metadata_repaired, 1u);
    EXPECT_GE(rep.degraded_scrub_repairs, 1u);
    EXPECT_TRUE(rep.success);
}

TEST(Chaos, CampaignReplaysBitForBitFromSeed) {
    const chaos_config cfg = default_chaos_config(7, 4'000);
    const chaos_report a = run_chaos_campaign(cfg);
    const chaos_report b = run_chaos_campaign(cfg);

    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.mismatches, b.mismatches);
    EXPECT_EQ(a.power_losses, b.power_losses);
    EXPECT_EQ(a.resynced_stripes, b.resynced_stripes);
    EXPECT_EQ(a.latent_errors_injected, b.latent_errors_injected);
    EXPECT_EQ(a.corruptions_injected, b.corruptions_injected);
    EXPECT_EQ(a.integrity_corruptions_injected, b.integrity_corruptions_injected);
    EXPECT_EQ(a.health_trips, b.health_trips);
    EXPECT_EQ(a.spares_promoted, b.spares_promoted);
    EXPECT_EQ(a.rebuilds_completed, b.rebuilds_completed);
    EXPECT_EQ(a.success, b.success);
    // Down to the per-disk fault streams and retry totals.
    EXPECT_EQ(a.io.retries, b.io.retries);
    EXPECT_EQ(a.io.transient_masked, b.io.transient_masked);
    EXPECT_EQ(a.io.retries_exhausted, b.io.retries_exhausted);
    EXPECT_EQ(a.io.backoff_us, b.io.backoff_us);
    EXPECT_EQ(a.stats.degraded_stripe_reads, b.stats.degraded_stripe_reads);
    EXPECT_EQ(a.stats.media_errors_recovered, b.stats.media_errors_recovered);
    EXPECT_EQ(a.stats.checksum_mismatches, b.stats.checksum_mismatches);
    EXPECT_EQ(a.stats.reads_self_healed, b.stats.reads_self_healed);
    EXPECT_EQ(a.degraded_scrub_repairs, b.degraded_scrub_repairs);
    EXPECT_EQ(a.settle_scrub_healed, b.settle_scrub_healed);
}

TEST(Chaos, DifferentSeedsStillPassButDiverge) {
    chaos_config c1 = default_chaos_config(1234, 4'000);
    c1.events.fail_stop_at_op = 800;
    c1.events.health_storm_at_op = 2'000;
    c1.events.power_loss_at_op = 3'200;
    chaos_config c2 = c1;
    c2.seed = 4321;

    const chaos_report a = run_chaos_campaign(c1);
    const chaos_report b = run_chaos_campaign(c2);
    EXPECT_TRUE(a.success);
    EXPECT_TRUE(b.success);
    // The seed drives the workload, not just the faults.
    EXPECT_NE(a.io.retries, b.io.retries);
}

// A remount that refuses to assemble ends the run, but through the same
// epilogue as every other verdict: the failure is counted, the verdict
// fails, and the flight recorder gets its verdict_failed breadcrumb.
TEST(Chaos, FailedRemountStillReachesTheVerdictEpilogue) {
    const std::string dir = ::testing::TempDir() + "liberation-chaos-lost";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    chaos_config cfg = default_chaos_config(42, 2'000);
    cfg.persist.enabled = true;
    cfg.persist.dir = dir;
    cfg.persist.kill_mid_write_at_op = 100;
    // The "process" dies and its store goes with it: nothing to remount.
    cfg.log = [&](const std::string& msg) {
        if (msg.rfind("kill (", 0) == 0) std::filesystem::remove_all(dir);
    };
    auto& fr = liberation::obs::flight_recorder::instance();
    fr.reset();
    const chaos_report rep = run_chaos_campaign(cfg);

    EXPECT_EQ(rep.kills, 1u);
    EXPECT_EQ(rep.remounts, 0u);
    EXPECT_EQ(rep.mount_failures, 1u);
    EXPECT_FALSE(rep.success);
    const auto records = fr.snapshot();
    EXPECT_TRUE(std::any_of(records.begin(), records.end(), [](const auto& r) {
        return r.kind == liberation::obs::fr_kind::verdict_failed;
    }));
    std::filesystem::remove_all(dir);
}

}  // namespace
