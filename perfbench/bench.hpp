// Shared pieces of the volume benchmark: the fixed geometry, the
// seed-derived content model that stands in for a shadow image, and the
// layer-replay entry points (replay.cpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "liberation/volume/volume.hpp"

namespace perfbench {

// k=8, p=11, 4 KiB elements, 4 shards, one stripe per placement chunk.
// 745 stripes per shard give 1,074,135,040 B of host data (just over
// 1 GiB): more than 3x a 300 MiB L3, so no workload runs from cache.
inline constexpr std::uint32_t kK = 8;
inline constexpr std::uint32_t kP = 11;
inline constexpr std::size_t kElem = 4096;
inline constexpr std::uint32_t kShards = 4;
inline constexpr std::size_t kStripesPerShard = 745;
inline constexpr std::size_t kStrip = kP * kElem;
inline constexpr std::size_t kStripeData = kK * kStrip;
/// One chunk round: one chunk (one stripe) on every shard.
inline constexpr std::size_t kRound = kShards * kStripeData;
inline constexpr std::size_t kChunks = kShards * kStripesPerShard;
inline constexpr std::size_t kCapacity = kStripeData * kChunks;
inline constexpr std::size_t kBlocks = kCapacity / kElem;

[[nodiscard]] inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

[[nodiscard]] inline std::uint64_t mix64(std::uint64_t z) noexcept {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// What every 4 KiB host block should hold. Block b at write generation g
/// holds a pseudo-random stream keyed by (seed, b, g); a generation
/// counter per block replaces a 1 GiB shadow copy of the volume, and any
/// earlier generation can be regenerated (the update replay needs the
/// pre-write bytes).
class shadow {
public:
    explicit shadow(std::uint64_t seed) : seed_(seed), gen_(kBlocks, 0) {}

    [[nodiscard]] std::uint32_t gen(std::size_t block) const {
        return gen_[block];
    }
    void set_all(std::uint32_t g) { gen_.assign(kBlocks, g); }

    /// Bytes of `block` at generation `g`.
    void fill(std::size_t block, std::uint32_t g, std::byte* dst) const;

    /// Current bytes of the block-aligned extent at `addr`.
    void current(std::size_t addr, std::span<std::byte> out) const;
    /// Advance every block of the extent to a new generation (a host
    /// write) and return its new bytes.
    void advance(std::size_t addr, std::span<std::byte> out);

    /// Number of 4 KiB blocks of `got` that differ from the current
    /// content of the extent at `addr`.
    [[nodiscard]] std::size_t wrong_blocks(std::size_t addr,
                                           std::span<const std::byte> got) const;

private:
    std::uint64_t seed_;
    std::vector<std::uint32_t> gen_;
};

struct op {
    bool write = false;
    std::size_t addr = 0;
    std::size_t len = 0;
};

/// Superblock persists so far, summed over every slot of every shard's
/// store (each persist bumps its slot image's seq); 0 in memory.
[[nodiscard]] std::uint64_t superblock_writes(liberation::volume::volume& vol);

/// Named metric values in insertion order.
struct metric {
    std::string name;
    std::string unit;
    double value;
};
using metric_list = std::vector<metric>;

/// Result of replaying an op list one layer boundary at a time.
struct replay_result {
    metric_list metrics;
    std::uint64_t checks = 0;       ///< byte/parity comparisons made
    std::uint64_t check_fails = 0;  ///< of which wrong
    /// Volume-boundary totals of the replay.
    double volume_self_us_per_op = 0;
    double volume_read_gbps = 0, volume_write_gbps = 0;
};

/// Replay `ops` at the volume, array, codec, kernel and (for persistent
/// volumes) store boundaries, with a span around each call, in whatever
/// state (healthy or degraded) the volume is in. Writes re-write each
/// block's current bytes, so the volume's content is unchanged and reads
/// stay checkable.
[[nodiscard]] replay_result replay_layers(liberation::volume::volume& vol,
                                          const shadow& content,
                                          std::span<const op> ops);

/// Replay the optimal decoder over every stripe of every shard with the
/// columns on `failed_disks` erased (the rebuild's decode work), checking
/// each reconstruction. Appends core.decode_* metrics.
void replay_rebuild_decode(liberation::volume::volume& vol,
                           const shadow& content,
                           std::span<const std::uint32_t> failed_disks,
                           double rebuild_us_per_stripe, replay_result& out);

}  // namespace perfbench
