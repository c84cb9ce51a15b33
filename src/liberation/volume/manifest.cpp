#include "liberation/volume/manifest.hpp"

#include <unistd.h>

#include <cstdio>

#include "liberation/integrity/crc32c.hpp"
#include "liberation/util/assert.hpp"
#include "liberation/util/le_codec.hpp"

namespace liberation::volume::persist {

namespace {

// Same little-endian codec as the per-disk superblocks
// (util/le_codec.hpp): byte-order independent, no alignment assumptions,
// trailing CRC32C over the encoded extent.

namespace le = util::le;

constexpr std::uint32_t flag_clean = 1u << 0;

constexpr std::size_t fixed_fields_size =
    8 + 4 + 4 +          // magic, version, flags
    8 + 8 +              // seq, volume_uuid
    4 + 8 +              // shards, chunk_stripes
    4 + 4 + 8 + 8 + 8 + 4;  // k, p, element_size, stripes, sector, layout

std::size_t encoded_size(std::uint32_t shards) {
    return fixed_fields_size + std::size_t{shards} * 8 + 4;  // uuids + CRC
}

bool write_slot(std::FILE* f, int slot, const std::vector<std::byte>& blob) {
    std::vector<std::byte> padded(manifest_slot_size);
    std::copy(blob.begin(), blob.end(), padded.begin());
    const long off = static_cast<long>(slot) *
                     static_cast<long>(manifest_slot_size);
    if (std::fseek(f, off, SEEK_SET) != 0) return false;
    return std::fwrite(padded.data(), 1, padded.size(), f) == padded.size();
}

bool flush_file(std::FILE* f, bool sync) {
    if (std::fflush(f) != 0) return false;
    return !sync || ::fdatasync(::fileno(f)) == 0;
}

}  // namespace

std::string manifest_path(const std::string& dir) {
    return dir + "/volume.manifest";
}

std::string shard_dir(const std::string& dir, std::uint32_t shard) {
    char name[32];
    std::snprintf(name, sizeof(name), "/shard-%02u", shard);
    return dir + name;
}

std::vector<std::byte> encode(const manifest& m) {
    LIBERATION_EXPECTS(m.shards > 0 && m.shards <= manifest_max_shards);
    LIBERATION_EXPECTS(m.shard_uuids.size() == m.shards);
    std::vector<std::byte> out(encoded_size(m.shards));
    le::writer w{out};
    w.u64(manifest_magic);
    w.u32(manifest_version);
    w.u32(m.clean ? flag_clean : 0);
    w.u64(m.seq);
    w.u64(m.volume_uuid);
    w.u32(m.shards);
    w.u64(m.chunk_stripes);
    w.u32(m.k);
    w.u32(m.p);
    w.u64(m.element_size);
    w.u64(m.stripes);
    w.u64(m.sector_size);
    w.u32(m.layout);
    w.table<std::uint64_t>(m.shard_uuids);
    w.u32(integrity::crc32c(out.data(), w.pos()));
    LIBERATION_EXPECTS(out.size() <= manifest_slot_size);
    return out;
}

std::optional<manifest> decode(std::span<const std::byte> raw) {
    le::reader r{raw};
    if (r.u64() != manifest_magic) return std::nullopt;
    if (r.u32() != manifest_version) return std::nullopt;

    manifest m;
    const std::uint32_t flags = r.u32();
    m.clean = (flags & flag_clean) != 0;
    m.seq = r.u64();
    m.volume_uuid = r.u64();
    m.shards = r.u32();
    m.chunk_stripes = r.u64();
    m.k = r.u32();
    m.p = r.u32();
    m.element_size = r.u64();
    m.stripes = r.u64();
    m.sector_size = r.u64();
    m.layout = r.u32();
    if (!r.ok) return std::nullopt;
    if (m.shards == 0 || m.shards > manifest_max_shards) return std::nullopt;

    const std::size_t want = encoded_size(m.shards);
    if (raw.size() < want) return std::nullopt;
    // Validate the trailing CRC over exactly the encoded extent before
    // trusting the UUID table (the slot buffer is zero-padded past it).
    const auto stored = le::load<std::uint32_t>(raw.data() + want - 4);
    if (integrity::crc32c(raw.data(), want - 4) != stored) return std::nullopt;

    m.shard_uuids.resize(m.shards);
    r.table<std::uint64_t>(m.shard_uuids);
    if (!r.ok) return std::nullopt;
    return m;
}

manifest_probe load_manifest(const std::string& dir) {
    manifest_probe probe;
    std::FILE* f = std::fopen(manifest_path(dir).c_str(), "rb");
    if (!f) return probe;
    probe.file_present = true;

    std::vector<std::byte> raw(manifest_slot_size);
    for (int slot = 0; slot < 2; ++slot) {
        const long off = static_cast<long>(slot) *
                         static_cast<long>(manifest_slot_size);
        std::optional<manifest> m;
        if (std::fseek(f, off, SEEK_SET) == 0 &&
            std::fread(raw.data(), 1, raw.size(), f) == raw.size()) {
            m = decode(raw);
        }
        if (!m) {
            ++probe.torn_slots;
        } else if (!probe.m || m->seq > probe.m->seq) {
            probe.m = std::move(m);
        }
    }
    std::fclose(f);
    // Under the shadow scheme the torn slot, when there is one, held the
    // in-flight (newest) copy — the survivor is the previous epoch.
    probe.fell_back = probe.m.has_value() && probe.torn_slots > 0;
    return probe;
}

bool create_manifest(const std::string& dir, manifest& m, bool sync) {
    std::FILE* f = std::fopen(manifest_path(dir).c_str(), "wb");
    if (!f) return false;
    // Prime both slots (seq and seq+1) so the first shadow persist —
    // which overwrites one of them — always leaves a valid fallback.
    bool ok = write_slot(f, static_cast<int>(m.seq % 2), encode(m));
    ++m.seq;
    ok = ok && write_slot(f, static_cast<int>(m.seq % 2), encode(m));
    ok = ok && flush_file(f, sync);
    std::fclose(f);
    return ok;
}

bool persist_manifest(const std::string& dir, manifest& m, bool sync) {
    std::FILE* f = std::fopen(manifest_path(dir).c_str(), "r+b");
    if (!f) return false;
    ++m.seq;
    bool ok = write_slot(f, static_cast<int>(m.seq % 2), encode(m));
    ok = ok && flush_file(f, sync);
    std::fclose(f);
    return ok;
}

}  // namespace liberation::volume::persist
