// On-disk format samples and their recorded v1 encodings.
//
// The superblock and volume-manifest codecs are pinned by golden bytes:
// tests/golden/format/<name>.hex holds the encoding of each sample below
// as recorded from the codec that first defined format v1. Any codec
// change (bulk table copies, section-wise encoding, a shared
// little-endian helper) must reproduce those bytes exactly; a diff there
// is a format break, not a refactor.
//
// Golden files are plain hex, 32 bytes per line; '#' starts a comment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "liberation/raid/intent_log.hpp"
#include "liberation/raid/persist/superblock.hpp"
#include "liberation/volume/manifest.hpp"

#ifndef LIBERATION_GOLDEN_DIR
#error "LIBERATION_GOLDEN_DIR must name tests/golden"
#endif

namespace format_samples {

namespace rp = liberation::raid::persist;
namespace vp = liberation::volume::persist;

/// A small superblock: every field set, one-page encoding.
inline rp::superblock sample_superblock() {
    rp::superblock sb;
    sb.seq = 7;
    sb.array_uuid = 0xDEADBEEFCAFEF00DULL;
    sb.events = 3;
    sb.clean = true;
    sb.slot = 2;
    sb.disk_id = 9;
    sb.k = 4;
    sb.p = 5;
    sb.element_size = 512;
    sb.stripes = 16;
    sb.sector_size = 512;
    sb.layout = 0;
    sb.spares_available = 1;
    sb.next_disk_id = 8;
    sb.intent_capacity = 8;
    sb.slot_states = {0, 0, 2, 0, 1, 0};
    sb.watermarks = {16, 16, 5, 16, 0, 16};
    sb.intents = {{3, 0x3F, 11}, {9, liberation::raid::intent_log::all_columns, 12}};
    sb.crcs = {1, 2, 3, 4, 5, 6, 7, 8};
    return sb;
}

/// A superblock whose encoding spans three 4 KiB pages: a checksum table
/// larger than a page, a total size that is not a page multiple, a
/// partly filled intent table and a member quarantined as fail-slow.
inline rp::superblock multipage_superblock() {
    rp::superblock sb;
    sb.seq = 0x0123'4567'89AB'CDEFULL;
    sb.array_uuid = 0x5EED'0F0F'A5A5'3C3CULL;
    sb.events = 41;
    sb.clean = false;
    sb.slot = 7;
    sb.disk_id = 23;
    sb.k = 8;
    sb.p = 11;
    sb.element_size = 4096;
    sb.stripes = 250;
    sb.sector_size = 4096;
    sb.layout = 1;
    sb.spares_available = 2;
    sb.next_disk_id = 24;
    sb.intent_capacity = 32;
    sb.slot_states = {0, 0, 2, 0, 1, 0 | rp::slot_state_slow_bit, 0, 0, 0, 0};
    sb.watermarks = {250, 250, 117, 250, 0, 250, 250, 250, 250, 250};
    sb.intents = {{17, 0x003, 90},
                  {4, 0x1FF, 91},
                  {249, liberation::raid::intent_log::all_columns, 93},
                  {0, 0x200, 94},
                  {128, 0x0F0, 96}};
    sb.crcs.resize(2500);
    for (std::uint32_t i = 0; i < sb.crcs.size(); ++i) {
        sb.crcs[i] = i * 0x9E37'79B1u ^ (i << 7);
    }
    return sb;
}

inline vp::manifest sample_manifest() {
    vp::manifest m;
    m.seq = 5;
    m.volume_uuid = 0xF00DF00DF00DF00DULL;
    m.clean = true;
    m.shards = 3;
    m.chunk_stripes = 2;
    m.k = 4;
    m.p = 5;
    m.element_size = 512;
    m.stripes = 8;
    m.sector_size = 512;
    m.layout = 0;
    m.shard_uuids = {0x11, 0x22, 0x33};
    return m;
}

/// Hex text of `bytes`, 32 bytes per line.
inline std::string hex_dump(const std::vector<std::byte>& bytes) {
    static constexpr char digits[] = "0123456789abcdef";
    std::string out;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        const auto b = std::to_integer<unsigned>(bytes[i]);
        out += digits[b >> 4];
        out += digits[b & 0xfu];
        if (i % 32 == 31 || i + 1 == bytes.size()) out += '\n';
    }
    return out;
}

/// Bytes of tests/golden/format/<name>.hex; empty when the file is absent.
inline std::vector<std::byte> load_golden(const std::string& name) {
    std::ifstream in(std::string(LIBERATION_GOLDEN_DIR) + "/format/" + name +
                     ".hex");
    std::vector<std::byte> out;
    std::string line;
    while (std::getline(in, line)) {
        if (const auto hash = line.find('#'); hash != std::string::npos) {
            line.resize(hash);
        }
        std::istringstream words(line);
        std::string word;
        while (words >> word) {
            for (std::size_t i = 0; i + 1 < word.size(); i += 2) {
                out.push_back(static_cast<std::byte>(
                    std::stoul(word.substr(i, 2), nullptr, 16)));
            }
        }
    }
    return out;
}

}  // namespace format_samples
