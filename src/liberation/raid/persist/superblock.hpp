// On-disk superblock of a persistent RAID-6 array (format v1).
//
// Every member disk's backing file carries, ahead of its data area:
//
//   [ file header, 4 KiB ][ superblock slot A ][ superblock slot B ][ data ]
//
// The *file header* is written exactly once, at format time, and never
// rewritten — it cannot tear — and records only what is needed to find
// and frame the superblock slots (slot size, data offset, array UUID,
// this file's slot index), CRC-protected like everything else.
//
// The *superblock* is the whole metadata state of the array as this disk
// last saw it: geometry, membership epoch (`events`, md's event counter),
// per-slot states and rebuild watermarks, the write-hole intent log, the
// hot-spare pool level — all replicated to every member so any surviving
// quorum can reassemble the array — plus this disk's own identity and its
// private integrity-checksum table (each disk checksums only itself; a
// member's CRC table dies with it and is rebuilt along with its data).
//
// Crash consistency is shadow-slot A/B: every update bumps the monotonic
// `seq` and rewrites the *alternate* slot, so a torn superblock write
// destroys at most the newer copy and the previous state remains intact
// and CRC-valid. decode() rejects a torn slot by its trailing CRC32C;
// mount takes the valid slot with the larger seq. The fsync ordering that
// upgrades this from process-kill safety to machine-crash safety is the
// store's job (see store.hpp and docs/PERSISTENCE.md).
//
// All integers are serialized little-endian, explicitly, so an image
// written on one host decodes on any other (util/le_codec.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace liberation::raid::persist {

/// Membership state of one disk slot, as persisted.
enum class slot_state : std::uint8_t {
    active = 0,      ///< full member, contents trusted
    failed = 1,      ///< fail-stopped or foreign; contents not used
    rebuilding = 2,  ///< promoted/blank member; trusted below its watermark
};

/// Flag bit OR-ed into a persisted slot-state byte when the member is
/// quarantined as fail-slow (latency_monitor's suspect_slow): its bytes
/// are fully trusted — lateness is not corruption — so the base state
/// stays `active`, and mount re-enters the quarantine instead of
/// re-learning the straggler from scratch. A separate bit (not a new
/// enum value) keeps the framing and version unchanged; decoders mask
/// it off before interpreting the base state.
inline constexpr std::uint8_t slot_state_slow_bit = 0x40;

inline constexpr std::uint64_t superblock_magic = 0x3130'4253'5242'494cULL;
inline constexpr std::uint32_t superblock_version = 1;
inline constexpr std::uint64_t file_header_magic = 0x3152'4448'5242'494cULL;
inline constexpr std::size_t file_header_size = 4096;

/// The write-once framing block at offset 0 of every member file.
struct file_header {
    std::uint64_t array_uuid = 0;
    std::uint32_t slot = 0;        ///< this file's slot index
    std::uint64_t slot_bytes = 0;  ///< size of each superblock slot
    std::uint64_t data_offset = 0; ///< file offset of the data area
};

/// In-memory image of one disk's superblock.
struct superblock {
    // ---- identity & epoch --------------------------------------------
    std::uint64_t seq = 0;         ///< bumped on every persist of this disk
    std::uint64_t array_uuid = 0;
    std::uint64_t events = 0;      ///< membership epoch (mount, fail, promote)
    bool clean = false;            ///< true only after a clean unmount
    std::uint32_t slot = 0;        ///< slot this superblock belongs to
    std::uint32_t disk_id = 0;     ///< identity of the hardware in the slot

    // ---- geometry ----------------------------------------------------
    std::uint32_t k = 0;
    std::uint32_t p = 0;           ///< code prime (= rows per strip)
    std::uint64_t element_size = 0;
    std::uint64_t stripes = 0;
    std::uint64_t sector_size = 0;
    std::uint32_t layout = 0;      ///< parity_layout as integer

    // ---- replicated array-wide state ---------------------------------
    std::uint32_t spares_available = 0;
    std::uint32_t next_disk_id = 0;
    std::uint32_t intent_capacity = 0;  ///< serialized intent-entry slots
    std::vector<std::uint8_t> slot_states;  ///< slot_state per disk slot
    std::vector<std::uint64_t> watermarks;  ///< rebuild cursor per slot
    struct intent_entry {
        std::uint64_t stripe;
        std::uint64_t columns;
        std::uint64_t seq;
    };
    std::vector<intent_entry> intents;

    // ---- this disk's private state -----------------------------------
    std::vector<std::uint32_t> crcs;  ///< integrity_region checksum table

    /// Same coded geometry? (The membership/identity fields may differ.)
    [[nodiscard]] bool geometry_matches(const superblock& o) const noexcept {
        return k == o.k && p == o.p && element_size == o.element_size &&
               stripes == o.stripes && sector_size == o.sector_size &&
               layout == o.layout &&
               slot_states.size() == o.slot_states.size();
    }
};

/// Exact encoded size for the given table dimensions (used to fix the
/// slot size at format time; intents always serialize `intent_capacity`
/// slots so the size never varies with log occupancy).
[[nodiscard]] std::size_t encoded_size(std::uint32_t slots,
                                       std::uint32_t intent_capacity,
                                       std::size_t crc_count) noexcept;

/// Byte length of the *head* section: the fixed fields, slot states,
/// watermarks and the capacity-sized intent table — everything the
/// encoding places before the checksum table.
[[nodiscard]] std::size_t head_size(std::uint32_t slots,
                                    std::uint32_t intent_capacity) noexcept;

/// Serialize; the result is CRC32C-terminated and decode()-compatible.
/// sb.intents.size() must be <= sb.intent_capacity. Layout:
///   [ head, head_size() ][ crcs, 4 B each ][ CRC32C of all before, 4 B ]
[[nodiscard]] std::vector<std::byte> encode(const superblock& sb);

/// The head section of encode(sb), written into `out` (which must be
/// exactly head_size() bytes). The store re-encodes only this section on
/// a persist and patches the checksum table word by word.
void encode_head(const superblock& sb, std::span<std::byte> out);

/// Parse and validate (magic, version, structural bounds, trailing CRC).
/// nullopt = not a valid v1 superblock — a torn write, zeroed slot, or
/// something else entirely; the caller falls back to the shadow slot.
[[nodiscard]] std::optional<superblock> decode(std::span<const std::byte> raw);

[[nodiscard]] std::vector<std::byte> encode_header(const file_header& h);
[[nodiscard]] std::optional<file_header> decode_header(
    std::span<const std::byte> raw);

}  // namespace liberation::raid::persist
