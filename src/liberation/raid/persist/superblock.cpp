#include "liberation/raid/persist/superblock.hpp"

#include "liberation/integrity/crc32c.hpp"
#include "liberation/util/assert.hpp"
#include "liberation/util/le_codec.hpp"

namespace liberation::raid::persist {

namespace {

namespace le = util::le;

constexpr std::size_t fixed_fields_size =
    8 + 4 + 4 +          // magic, version, flags
    8 + 8 + 8 +          // seq, array_uuid, events
    4 + 4 +              // slot, disk_id
    4 + 4 + 8 + 8 + 8 + 4 +  // k, p, element_size, stripes, sector, layout
    4 + 4 + 4 +          // spares_available, next_disk_id, intent_capacity
    4 + 4 + 4;           // slot_count, intent_count, crc_count

constexpr std::uint32_t flag_clean = 1u << 0;

// Sanity ceilings: large enough for any real configuration, small enough
// that a CRC-colliding garbage blob cannot drive pathological allocation.
constexpr std::uint32_t max_slots = 64;
constexpr std::uint32_t max_intent_capacity = 1u << 20;
constexpr std::size_t max_crc_count = std::size_t{1} << 32;

}  // namespace

std::size_t head_size(std::uint32_t slots,
                      std::uint32_t intent_capacity) noexcept {
    return fixed_fields_size +
           std::size_t{slots} * (1 + 8) +       // slot_states + watermarks
           std::size_t{intent_capacity} * 24;   // stripe, columns, seq
}

std::size_t encoded_size(std::uint32_t slots, std::uint32_t intent_capacity,
                         std::size_t crc_count) noexcept {
    return head_size(slots, intent_capacity) +
           crc_count * 4 +                      // checksum table
           4;                                   // trailing CRC32C
}

void encode_head(const superblock& sb, std::span<std::byte> out) {
    LIBERATION_EXPECTS(sb.slot_states.size() == sb.watermarks.size());
    LIBERATION_EXPECTS(sb.intents.size() <= sb.intent_capacity);
    LIBERATION_EXPECTS(
        out.size() ==
        head_size(static_cast<std::uint32_t>(sb.slot_states.size()),
                  sb.intent_capacity));
    le::writer w{out};
    w.u64(superblock_magic);
    w.u32(superblock_version);
    w.u32(sb.clean ? flag_clean : 0);
    w.u64(sb.seq);
    w.u64(sb.array_uuid);
    w.u64(sb.events);
    w.u32(sb.slot);
    w.u32(sb.disk_id);
    w.u32(sb.k);
    w.u32(sb.p);
    w.u64(sb.element_size);
    w.u64(sb.stripes);
    w.u64(sb.sector_size);
    w.u32(sb.layout);
    w.u32(sb.spares_available);
    w.u32(sb.next_disk_id);
    w.u32(sb.intent_capacity);
    w.u32(static_cast<std::uint32_t>(sb.slot_states.size()));
    w.u32(static_cast<std::uint32_t>(sb.intents.size()));
    w.u32(static_cast<std::uint32_t>(sb.crcs.size()));

    w.table<std::uint8_t>(sb.slot_states);
    w.table<std::uint64_t>(sb.watermarks);
    w.records<std::uint64_t, superblock::intent_entry>(sb.intents);
    // Pad the unused intent slots so the encoded size — and with it the
    // on-disk slot framing — never depends on log occupancy.
    w.zeros((sb.intent_capacity - sb.intents.size()) * 24);
}

std::vector<std::byte> encode(const superblock& sb) {
    const auto slots = static_cast<std::uint32_t>(sb.slot_states.size());
    std::vector<std::byte> out(
        encoded_size(slots, sb.intent_capacity, sb.crcs.size()));
    const std::size_t head = head_size(slots, sb.intent_capacity);
    encode_head(sb, std::span(out).first(head));
    le::writer w{std::span(out).subspan(head)};
    w.table<std::uint32_t>(sb.crcs);
    w.u32(integrity::crc32c(out.data(), out.size() - 4));
    return out;
}

std::optional<superblock> decode(std::span<const std::byte> raw) {
    le::reader r{raw};
    if (r.u64() != superblock_magic) return std::nullopt;
    if (r.u32() != superblock_version) return std::nullopt;

    superblock sb;
    const std::uint32_t flags = r.u32();
    sb.clean = (flags & flag_clean) != 0;
    sb.seq = r.u64();
    sb.array_uuid = r.u64();
    sb.events = r.u64();
    sb.slot = r.u32();
    sb.disk_id = r.u32();
    sb.k = r.u32();
    sb.p = r.u32();
    sb.element_size = r.u64();
    sb.stripes = r.u64();
    sb.sector_size = r.u64();
    sb.layout = r.u32();
    sb.spares_available = r.u32();
    sb.next_disk_id = r.u32();
    sb.intent_capacity = r.u32();
    const std::uint32_t slots = r.u32();
    const std::uint32_t intent_count = r.u32();
    const std::uint32_t crc_count = r.u32();
    if (!r.ok) return std::nullopt;
    if (slots > max_slots || sb.intent_capacity > max_intent_capacity ||
        intent_count > sb.intent_capacity || crc_count > max_crc_count) {
        return std::nullopt;
    }
    const std::size_t want = encoded_size(slots, sb.intent_capacity, crc_count);
    if (raw.size() < want) return std::nullopt;

    // Validate the trailing CRC over exactly the encoded extent before
    // trusting any table contents (the slot buffer may be larger).
    const auto stored = le::load<std::uint32_t>(raw.data() + want - 4);
    if (integrity::crc32c(raw.data(), want - 4) != stored) return std::nullopt;

    sb.slot_states.resize(slots);
    r.table<std::uint8_t>(sb.slot_states);
    sb.watermarks.resize(slots);
    r.table<std::uint64_t>(sb.watermarks);
    sb.intents.resize(intent_count);
    r.records<std::uint64_t, superblock::intent_entry>(sb.intents);
    r.skip((sb.intent_capacity - intent_count) * 24);  // padding slots
    sb.crcs.resize(crc_count);
    r.table<std::uint32_t>(sb.crcs);
    if (!r.ok) return std::nullopt;

    for (std::uint8_t st : sb.slot_states) {
        if ((st & ~slot_state_slow_bit) >
            static_cast<std::uint8_t>(slot_state::rebuilding)) {
            return std::nullopt;
        }
    }
    return sb;
}

std::vector<std::byte> encode_header(const file_header& h) {
    // Zero-padded to the full header block.
    std::vector<std::byte> out(file_header_size);
    le::writer w{out};
    w.u64(file_header_magic);
    w.u32(superblock_version);
    w.u64(h.array_uuid);
    w.u32(h.slot);
    w.u64(h.slot_bytes);
    w.u64(h.data_offset);
    w.u32(integrity::crc32c(out.data(), w.pos()));
    return out;
}

std::optional<file_header> decode_header(std::span<const std::byte> raw) {
    le::reader r{raw};
    if (r.u64() != file_header_magic) return std::nullopt;
    if (r.u32() != superblock_version) return std::nullopt;
    file_header h;
    h.array_uuid = r.u64();
    h.slot = r.u32();
    h.slot_bytes = r.u64();
    h.data_offset = r.u64();
    const std::size_t payload = r.pos;
    const std::uint32_t stored = r.u32();
    if (!r.ok) return std::nullopt;
    if (integrity::crc32c(raw.data(), payload) != stored) return std::nullopt;
    if (h.slot_bytes == 0 ||
        h.data_offset < file_header_size + 2 * h.slot_bytes) {
        return std::nullopt;
    }
    return h;
}

}  // namespace liberation::raid::persist
