// Persistence store: the backing files of one RAID-6 array.
//
// A `store` owns one file per disk slot (`<dir>/disk-NN.img`), each framed
// as [file header][superblock slot A][superblock slot B][data area] (see
// superblock.hpp), and a `file_backend` that executes all I/O against
// them. The array keeps its authoritative state in memory exactly as
// before; the store holds one superblock *image* per slot, and the
// array's persistence hooks edit the relevant images and call persist(),
// which bumps the image's seq and shadow-writes the alternate A/B slot.
//
// A persist costs what changed, not the slot size. The store also keeps
// each slot's encoded bytes, a CRC32C per 4 KiB page of them, and, per
// shadow copy, the pages that changed since that copy was last written.
// persist() re-encodes only the head section (fixed fields, slot states,
// watermarks, intent table — small, and always re-encoded, so head edits
// need no notice), takes checksum words already patched by sync_crcs(),
// re-CRCs only the changed pages, stitches the trailing CRC32C from the
// per-page CRCs (integrity::crc32c_shift), and writes only the pages the
// target copy lacks. The bytes that land in each copy are exactly
// encode(image) — the on-disk format and the persist sequence are those
// of a whole-slot rewrite.
//
// Fsync ordering (machine-crash durability, `store_config::sync_meta`):
// a superblock is fdatasync'd immediately after its slot write, so a
// record-ahead intent entry is durable before the data writes it covers
// are issued — the same ordering the in-memory array maintains against
// simulated power loss. With sync_meta off, writes still survive process
// kills (the kernel owns the page cache), which is what the chaos
// campaign's kill-and-remount phases exercise. See docs/PERSISTENCE.md.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "liberation/aio/file_backend.hpp"
#include "liberation/integrity/crc32c.hpp"
#include "liberation/raid/persist/superblock.hpp"

namespace liberation::raid::persist {

struct store_config {
    std::string dir;          ///< directory holding disk-NN.img files
    bool direct_io = false;   ///< route aligned data I/O through O_DIRECT
    bool sync_meta = false;   ///< fdatasync each superblock persist
    bool sync_data = false;   ///< fdatasync each data write (paranoid mode)
};

/// What probe found in one slot's backing file, before any geometry is
/// known: header, both superblock slots, and how they decoded.
struct disk_probe {
    std::string path;
    bool file_present = false;
    bool header_ok = false;     ///< file header decoded and sane
    file_header header;
    int bad_slots = 0;          ///< A/B slots that failed to decode (0..2)
    std::optional<superblock> sb;  ///< the valid slot with the larger seq
};

/// Read-only scan of a store directory (plain stdio — never creates or
/// modifies anything). Returns one probe per slot index from 0 through
/// the highest index with a file present; trailing entries may be absent
/// placeholders when earlier files exist but later ones were lost.
[[nodiscard]] std::vector<disk_probe> probe_dir(const std::string& dir);

class store {
public:
    /// `<dir>/disk-NN.img` for slot NN.
    [[nodiscard]] static std::string disk_path(const std::string& dir,
                                               std::uint32_t slot);

    /// Create fresh backing files for every slot: write-once file header,
    /// then both superblock slots primed with the given image (so even the
    /// very first shadow write has a valid fallback). All images must
    /// share table dimensions — the common worst case fixes the slot size.
    /// Returns nullptr if any file cannot be created or written.
    static std::unique_ptr<store> format(const store_config& cfg,
                                         std::vector<superblock> images,
                                         std::size_t disk_capacity);

    /// Reopen existing files. `images` holds the per-slot in-memory state
    /// the mounter decided on (decoded, or fabricated for kicked disks);
    /// slots listed in `fresh_slots` get their header and both superblock
    /// slots rewritten from scratch (missing or unreadable files being
    /// re-initialized as blank rebuild targets). Returns nullptr when a
    /// fresh slot cannot be initialized.
    static std::unique_ptr<store> attach(
        const store_config& cfg, std::vector<superblock> images,
        std::size_t disk_capacity, std::uint64_t slot_bytes,
        const std::vector<std::uint32_t>& fresh_slots);

    [[nodiscard]] std::size_t slot_count() const noexcept {
        return images_.size();
    }
    [[nodiscard]] std::uint64_t uuid() const noexcept { return uuid_; }
    [[nodiscard]] std::uint64_t slot_bytes() const noexcept {
        return slot_bytes_;
    }
    [[nodiscard]] bool slot_ok(std::uint32_t slot) const noexcept {
        return backend_->ok(slot);
    }

    /// Slots participating in metadata replication (superblock persists
    /// and media sinks). The mounter excludes foreign or geometry-
    /// mismatched files so a stray disk from another array is never
    /// overwritten; reinit_slot() reclaims a slot once the operator
    /// installs a blank replacement.
    [[nodiscard]] bool meta_slot(std::uint32_t slot) const noexcept {
        return ((meta_mask_ >> slot) & 1) != 0;
    }
    void exclude_meta_slot(std::uint32_t slot) noexcept {
        meta_mask_ &= ~(std::uint64_t{1} << slot);
    }
    /// Reclaim a slot for this array: rewrite its file header and both
    /// superblock slots from the current image and re-enable metadata
    /// updates for it.
    bool reinit_slot(std::uint32_t slot);

    /// The in-memory superblock image for a slot.
    [[nodiscard]] const superblock& image(std::uint32_t slot) const {
        return images_[slot];
    }

    /// The slot's image for editing its head fields — everything but
    /// `crcs`. persist() re-encodes the head every time, so edits here
    /// need no further notice. The checksum table changes only through
    /// sync_crcs(), which keeps the encoded bytes in step.
    [[nodiscard]] superblock& head(std::uint32_t slot) {
        return images_[slot];
    }

    /// Bring checksum words [first, first + count) of the slot's image in
    /// step with `table`, the disk's live checksum table. A table of a
    /// different length replaces the image's whole table.
    void sync_crcs(std::uint32_t slot, std::span<const std::uint32_t> table,
                   std::size_t first, std::size_t count);

    /// Bump the image's seq and shadow-write it to the alternate A/B slot
    /// (fdatasync'd when sync_meta). False when the slot's file is gone or
    /// the write fails; the copy it targeted is then rewritten in full by
    /// its next persist.
    bool persist(std::uint32_t slot);

    /// Metadata bytes pwritten so far: file headers and superblock copies.
    [[nodiscard]] std::uint64_t meta_bytes_written() const noexcept {
        return meta_bytes_written_.load(std::memory_order_relaxed);
    }

    // ---- data plane (offsets relative to the data area) ----------------
    [[nodiscard]] bool read_data(std::uint32_t slot, std::size_t offset,
                                 std::span<std::byte> out);
    [[nodiscard]] bool write_data(std::uint32_t slot, std::size_t offset,
                                  std::span<const std::byte> in);

    [[nodiscard]] bool flush_all();
    [[nodiscard]] aio::file_backend& backend() noexcept { return *backend_; }
    [[nodiscard]] const store_config& config() const noexcept { return cfg_; }

private:
    store(store_config cfg, std::vector<superblock> images,
          std::uint64_t slot_bytes, std::size_t disk_capacity);

    /// encode(image) of one slot, cut into 4 KiB pages, and what each
    /// shadow copy still lacks of it.
    struct encoded_slot {
        std::vector<std::byte> bytes;        ///< empty until first encoded
        std::size_t head = 0;                ///< head_size() of the image
        std::vector<std::byte> scratch;      ///< freshly encoded head
        std::vector<std::uint32_t> page_crc; ///< CRC32C per page of the body
        std::vector<std::uint8_t> flags;     ///< per page: stale, A/B dirty
        /// Advance by the length of the last (partial) body page.
        std::optional<integrity::crc32c_shift> tail_shift;
    };

    /// Write the file header and both superblock slots of one file.
    bool init_slot_file(std::uint32_t slot);
    /// Encode the whole image afresh: every page stale, both copies dirty.
    void reencode(std::uint32_t slot);
    /// Recompute stale page CRCs and store the stitched trailing CRC32C.
    static void seal(encoded_slot& e);
    /// pwrite the pages copy `copy` lacks; on failure mark it fully dirty.
    bool write_copy(std::uint32_t slot, std::uint64_t copy);
    /// Overwrite e.bytes[off, off + src.size()) with `src`, OR-ing `mark`
    /// into the flags of every page whose bytes actually change.
    static void patch(encoded_slot& e, std::size_t off,
                      std::span<const std::byte> src, std::uint8_t mark);
    /// backend pwrite_raw, counted in meta_bytes_written().
    bool pwrite_meta(std::uint32_t slot, std::size_t offset,
                     std::span<const std::byte> in);

    store_config cfg_;
    std::uint64_t slot_bytes_;
    std::uint64_t uuid_;
    std::uint64_t meta_mask_ = ~std::uint64_t{0};
    std::vector<superblock> images_;
    std::vector<encoded_slot> encoded_;
    std::atomic<std::uint64_t> meta_bytes_written_{0};
    std::unique_ptr<aio::file_backend> backend_;
};

}  // namespace liberation::raid::persist
