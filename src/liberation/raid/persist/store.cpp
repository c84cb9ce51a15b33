#include "liberation/raid/persist/store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "liberation/util/assert.hpp"
#include "liberation/util/le_codec.hpp"

namespace liberation::raid::persist {

namespace {

constexpr std::size_t slot_align = 4096;
constexpr std::uint32_t probe_scan_limit = 64;  // matches the array's max n

// Dirty tracking unit of the encoded superblock. Slots start page-aligned
// in the file (4 KiB header, slot_bytes a multiple of slot_align), so an
// encoded page is a file page too.
constexpr std::size_t page = 4096;

// Per-page flag bits of an encoded_slot.
constexpr std::uint8_t crc_stale = 1u << 0;  ///< page CRC out of date
constexpr std::uint8_t copy_dirty[2] = {1u << 1, 1u << 2};  ///< A, B lack it
constexpr std::uint8_t changed = crc_stale | copy_dirty[0] | copy_dirty[1];

constexpr std::uint8_t keep_all_but(std::uint8_t bits) {
    return static_cast<std::uint8_t>(~bits);
}

std::uint64_t round_up(std::uint64_t v, std::uint64_t align) {
    return (v + align - 1) / align * align;
}

/// Read exactly out.size() bytes at `offset` with stdio; false on any
/// shortfall. Used only by probe_dir, which must not create files.
bool read_at(std::FILE* f, std::size_t offset, std::span<std::byte> out) {
    if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) return false;
    return std::fread(out.data(), 1, out.size(), f) == out.size();
}

}  // namespace

std::string store::disk_path(const std::string& dir, std::uint32_t slot) {
    char name[32];
    std::snprintf(name, sizeof(name), "/disk-%02u.img", slot);
    return dir + name;
}

std::vector<disk_probe> probe_dir(const std::string& dir) {
    std::vector<disk_probe> probes;
    std::size_t last_present = 0;
    for (std::uint32_t slot = 0; slot < probe_scan_limit; ++slot) {
        disk_probe p;
        p.path = store::disk_path(dir, slot);
        std::FILE* f = std::fopen(p.path.c_str(), "rb");
        if (f) {
            p.file_present = true;
            std::vector<std::byte> hdr(file_header_size);
            if (read_at(f, 0, hdr)) {
                if (auto h = decode_header(hdr)) {
                    p.header_ok = true;
                    p.header = *h;
                }
            }
            if (p.header_ok) {
                // Decode both shadow slots; keep the valid one with the
                // larger seq, count the rest as torn.
                std::vector<std::byte> raw(p.header.slot_bytes);
                for (int s = 0; s < 2; ++s) {
                    const std::size_t off =
                        file_header_size +
                        static_cast<std::size_t>(s) * p.header.slot_bytes;
                    std::optional<superblock> sb;
                    if (read_at(f, off, raw)) sb = decode(raw);
                    if (!sb) {
                        ++p.bad_slots;
                    } else if (!p.sb || sb->seq > p.sb->seq) {
                        p.sb = std::move(sb);
                    }
                }
            }
            std::fclose(f);
            last_present = probes.size() + 1;
        }
        probes.push_back(std::move(p));
    }
    probes.resize(last_present);
    return probes;
}

store::store(store_config cfg, std::vector<superblock> images,
             std::uint64_t slot_bytes, std::size_t disk_capacity)
    : cfg_(std::move(cfg)), slot_bytes_(slot_bytes),
      uuid_(images.empty() ? 0 : images.front().array_uuid),
      images_(std::move(images)), encoded_(images_.size()) {
    std::vector<std::string> paths;
    paths.reserve(images_.size());
    for (std::uint32_t s = 0; s < images_.size(); ++s) {
        paths.push_back(disk_path(cfg_.dir, s));
    }
    aio::file_backend_config bc;
    bc.data_offset = file_header_size + 2 * slot_bytes_;
    bc.direct_io = cfg_.direct_io;
    bc.sync_data = cfg_.sync_data;
    backend_ = std::make_unique<aio::file_backend>(std::move(paths),
                                                   disk_capacity, bc);
}

bool store::init_slot_file(std::uint32_t slot) {
    const superblock& sb = images_[slot];
    file_header h;
    h.array_uuid = sb.array_uuid;
    h.slot = slot;
    h.slot_bytes = slot_bytes_;
    h.data_offset = file_header_size + 2 * slot_bytes_;
    if (!pwrite_meta(slot, 0, encode_header(h))) return false;
    // Prime both shadow slots so the first regular persist (which
    // overwrites one of them) always leaves a valid fallback copy.
    reencode(slot);
    encoded_slot& e = encoded_[slot];
    seal(e);
    LIBERATION_EXPECTS(e.bytes.size() <= slot_bytes_);
    for (const std::uint64_t copy : {0u, 1u}) {
        if (!pwrite_meta(slot, file_header_size + copy * slot_bytes_,
                         e.bytes)) {
            return false;
        }
        for (std::uint8_t& f : e.flags) f &= keep_all_but(copy_dirty[copy]);
    }
    if (cfg_.sync_meta && !backend_->flush(slot)) return false;
    return true;
}

void store::reencode(std::uint32_t slot) {
    const superblock& sb = images_[slot];
    encoded_slot& e = encoded_[slot];
    e.bytes = encode(sb);
    e.head = head_size(static_cast<std::uint32_t>(sb.slot_states.size()),
                       sb.intent_capacity);
    e.scratch.resize(e.head);
    const std::size_t body = e.bytes.size() - 4;  // all but the trailer
    const std::size_t body_pages = (body + page - 1) / page;
    e.page_crc.assign(body_pages, 0);
    e.flags.assign((e.bytes.size() + page - 1) / page, changed);
    e.tail_shift.emplace(body - (body_pages - 1) * page);
}

void store::seal(encoded_slot& e) {
    static const integrity::crc32c_shift page_shift(page);
    const std::size_t body = e.bytes.size() - 4;
    std::uint32_t crc = 0;  // CRC32C of the empty prefix
    for (std::size_t pg = 0, at = 0; at < body; ++pg, at += page) {
        const std::size_t len = std::min(page, body - at);
        if ((e.flags[pg] & crc_stale) != 0) {
            e.page_crc[pg] = integrity::crc32c(e.bytes.data() + at, len);
            e.flags[pg] &= keep_all_but(crc_stale);
        }
        crc = (len == page ? page_shift : *e.tail_shift)
                  .combine(crc, e.page_crc[pg]);
    }
    std::byte trailer[4];
    util::le::store(trailer, crc);
    patch(e, body, trailer, copy_dirty[0] | copy_dirty[1]);
}

bool store::write_copy(std::uint32_t slot, std::uint64_t copy) {
    encoded_slot& e = encoded_[slot];
    const std::uint8_t bit = copy_dirty[copy];
    const std::size_t base = file_header_size + copy * slot_bytes_;
    const std::size_t pages = e.flags.size();
    for (std::size_t pg = 0; pg < pages;) {
        if ((e.flags[pg] & bit) == 0) {
            ++pg;
            continue;
        }
        std::size_t end = pg + 1;
        while (end < pages && (e.flags[end] & bit) != 0) ++end;
        const std::size_t lo = pg * page;
        const std::size_t hi = std::min(end * page, e.bytes.size());
        if (!pwrite_meta(slot, base + lo,
                         std::span(e.bytes).subspan(lo, hi - lo))) {
            // What reached the copy is unknown: rewrite it all next time.
            for (std::uint8_t& f : e.flags) f |= bit;
            return false;
        }
        for (; pg < end; ++pg) e.flags[pg] &= keep_all_but(bit);
    }
    return true;
}

void store::patch(encoded_slot& e, std::size_t off,
                  std::span<const std::byte> src, std::uint8_t mark) {
    while (!src.empty()) {
        const std::size_t pg = off / page;
        const std::size_t n = std::min(src.size(), (pg + 1) * page - off);
        if (std::memcmp(e.bytes.data() + off, src.data(), n) != 0) {
            std::memcpy(e.bytes.data() + off, src.data(), n);
            e.flags[pg] |= mark;
        }
        off += n;
        src = src.subspan(n);
    }
}

bool store::pwrite_meta(std::uint32_t slot, std::size_t offset,
                        std::span<const std::byte> in) {
    if (!backend_->pwrite_raw(slot, offset, in)) return false;
    meta_bytes_written_.fetch_add(in.size(), std::memory_order_relaxed);
    return true;
}

std::unique_ptr<store> store::format(const store_config& cfg,
                                     std::vector<superblock> images,
                                     std::size_t disk_capacity) {
    LIBERATION_EXPECTS(!images.empty());
    // Formatting a fresh array may name a directory that does not exist
    // yet; creating it here keeps `create_array(dir)` one-shot. (attach()
    // deliberately does not: mounting expects the files to be there.)
    std::error_code ec;
    std::filesystem::create_directories(cfg.dir, ec);
    const superblock& first = images.front();
    const std::uint64_t slot_bytes = round_up(
        encoded_size(static_cast<std::uint32_t>(first.slot_states.size()),
                     first.intent_capacity, first.crcs.size()),
        slot_align);
    std::unique_ptr<store> st(
        new store(cfg, std::move(images), slot_bytes, disk_capacity));
    for (std::uint32_t s = 0; s < st->slot_count(); ++s) {
        if (!st->backend_->ok(s) || !st->init_slot_file(s)) return nullptr;
    }
    return st;
}

std::unique_ptr<store> store::attach(
    const store_config& cfg, std::vector<superblock> images,
    std::size_t disk_capacity, std::uint64_t slot_bytes,
    const std::vector<std::uint32_t>& fresh_slots) {
    LIBERATION_EXPECTS(!images.empty());
    std::unique_ptr<store> st(
        new store(cfg, std::move(images), slot_bytes, disk_capacity));
    for (std::uint32_t s : fresh_slots) {
        if (!st->backend_->ok(s) || !st->init_slot_file(s)) return nullptr;
    }
    return st;
}

bool store::reinit_slot(std::uint32_t slot) {
    if (!backend_->ok(slot) || !init_slot_file(slot)) return false;
    meta_mask_ |= std::uint64_t{1} << slot;
    return true;
}

void store::sync_crcs(std::uint32_t slot,
                      std::span<const std::uint32_t> table, std::size_t first,
                      std::size_t count) {
    superblock& sb = images_[slot];
    if (sb.crcs.size() != table.size()) {
        // A new table length changes the encoded size: persist() notices
        // and re-encodes the whole image.
        sb.crcs.assign(table.begin(), table.end());
        return;
    }
    LIBERATION_EXPECTS(first <= table.size() && count <= table.size() - first);
    const auto words = table.subspan(first, count);
    std::copy(words.begin(), words.end(),
              sb.crcs.begin() + static_cast<std::ptrdiff_t>(first));
    encoded_slot& e = encoded_[slot];
    if (e.bytes.size() != e.head + 4 * table.size() + 4) return;  // unencoded
    // Stage the words little-endian in small chunks and patch them in.
    constexpr std::size_t chunk = 64;
    std::byte staged[4 * chunk];
    for (std::size_t i = 0; i < count; i += chunk) {
        const std::size_t n = std::min(chunk, count - i);
        util::le::writer w{std::span(staged, 4 * n)};
        w.table(words.subspan(i, n));
        patch(e, e.head + 4 * (first + i), std::span(staged, 4 * n), changed);
    }
}

bool store::persist(std::uint32_t slot) {
    if (!backend_->ok(slot)) return false;
    superblock& sb = images_[slot];
    ++sb.seq;
    encoded_slot& e = encoded_[slot];
    const auto slots = static_cast<std::uint32_t>(sb.slot_states.size());
    if (e.bytes.size() !=
            encoded_size(slots, sb.intent_capacity, sb.crcs.size()) ||
        e.head != head_size(slots, sb.intent_capacity)) {
        reencode(slot);
    } else {
        encode_head(sb, e.scratch);
        patch(e, 0, e.scratch, changed);
    }
    seal(e);
    LIBERATION_EXPECTS(e.bytes.size() <= slot_bytes_);
    if (!write_copy(slot, sb.seq % 2)) return false;
    if (cfg_.sync_meta && !backend_->flush(slot)) return false;
    return true;
}

bool store::read_data(std::uint32_t slot, std::size_t offset,
                      std::span<std::byte> out) {
    return backend_->read_data(slot, offset, out);
}

bool store::write_data(std::uint32_t slot, std::size_t offset,
                       std::span<const std::byte> in) {
    return backend_->write_data(slot, offset, in);
}

bool store::flush_all() { return backend_->flush_all(); }

}  // namespace liberation::raid::persist
