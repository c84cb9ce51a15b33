// File-backed execution backend: one file per disk behind the aio layer.
//
// `file_backend` implements the same `io_backend` interface the array's
// vdisk adapter does, but lands every transfer in a per-disk regular file
// via positioned I/O (pread/pwrite). It is the bottom of the persistence
// stack: the raid/persist/ layer owns the files' metadata header and
// superblock slots and hands this backend the byte offset where the data
// area begins; everything submitted through execute() is relative to that
// data area, so the aio queue_pair and the stripe engines stay oblivious
// to the on-disk framing.
//
// Direct I/O: when `file_backend_config::direct_io` is set, each file is
// additionally opened O_DIRECT (where the platform supports it) and a
// transfer is routed through the direct descriptor whenever its offset,
// length, and buffer address all meet the direct-I/O alignment (4096 —
// the conservative logical-block bound). Everything else takes the
// buffered descriptor: partial-element updates, the CRC-block-widened
// verify reads, and callers whose buffers are only cache-line aligned.
// A direct transfer that the kernel still refuses (EINVAL on exotic
// filesystems) is retried buffered, so direct I/O is strictly an
// optimization, never a correctness dependency.
//
// Durability model: pwrite() completing means the bytes survive a *process
// kill* (they are in the page cache, owned by the kernel). Surviving a
// machine crash additionally needs fdatasync ordering, which the
// persistence layer drives through flush()/`sync_data` according to its
// fsync protocol (docs/PERSISTENCE.md).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "liberation/aio/aio.hpp"

namespace liberation::aio {

struct file_backend_config {
    /// Byte offset of the data area within each file. execute() and
    /// read_data()/write_data() address data-area bytes; the raw calls
    /// below address absolute file offsets (metadata lives below this).
    std::size_t data_offset = 0;
    /// Attempt O_DIRECT; per-transfer alignment gating with buffered
    /// fallback (see the header comment).
    bool direct_io = false;
    /// fdatasync after every *data* write executed through the backend.
    /// Off by default: the persistence layer's metadata protocol decides
    /// when ordering matters; per-write syncing is the paranoid mode.
    bool sync_data = false;
};

/// Counters for the dispatch decisions (observability and tests).
struct file_backend_stats {
    std::uint64_t direct_transfers = 0;    ///< landed through O_DIRECT
    std::uint64_t buffered_transfers = 0;  ///< landed buffered
    std::uint64_t direct_fallbacks = 0;    ///< direct attempt retried buffered
};

class file_backend final : public io_backend {
public:
    /// Transfers aligned to this go direct when direct_io is on.
    static constexpr std::size_t direct_alignment = 4096;

    /// Open (creating and extending as needed) one file per path. Each
    /// file is sized to `data_offset + capacity` so reads of never-written
    /// extents return zeros, exactly like a fresh disk. A path that cannot
    /// be opened leaves its slot permanently failed (ok(i) == false) —
    /// callers degrade around it the same way they degrade around a dead
    /// disk.
    file_backend(std::vector<std::string> paths, std::size_t capacity,
                 const file_backend_config& cfg = {});
    ~file_backend() override;

    file_backend(const file_backend&) = delete;
    file_backend& operator=(const file_backend&) = delete;

    /// aio execution: data-area read/write on file `d.disk`.
    raid::io_status execute(const io_desc& d) override;

    [[nodiscard]] std::size_t file_count() const noexcept {
        return files_.size();
    }
    /// True when the slot's file opened (and sized) successfully.
    [[nodiscard]] bool ok(std::uint32_t file) const noexcept;
    /// True when the slot has a usable O_DIRECT descriptor.
    [[nodiscard]] bool direct_active(std::uint32_t file) const noexcept;
    [[nodiscard]] std::size_t data_offset() const noexcept {
        return cfg_.data_offset;
    }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] file_backend_stats stats() const noexcept;

    // ---- data-area convenience (offsets relative to data_offset) ------
    [[nodiscard]] bool read_data(std::uint32_t file, std::size_t offset,
                                 std::span<std::byte> out);
    [[nodiscard]] bool write_data(std::uint32_t file, std::size_t offset,
                                  std::span<const std::byte> in);

    // ---- raw access (absolute file offsets; always buffered) -----------
    // The persistence layer reads/writes superblock slots through these.
    [[nodiscard]] bool pread_raw(std::uint32_t file, std::size_t offset,
                                 std::span<std::byte> out);
    [[nodiscard]] bool pwrite_raw(std::uint32_t file, std::size_t offset,
                                  std::span<const std::byte> in);

    /// fdatasync one file / all open files. Needed only for machine-crash
    /// durability; process-kill survival comes free with pwrite.
    [[nodiscard]] bool flush(std::uint32_t file);
    [[nodiscard]] bool flush_all();

    /// Test seam: called after every successful pwrite_raw() and
    /// write_data(), in issue order, with the file, the absolute file
    /// offset and the bytes written. The crash-prefix tests replay these
    /// records to materialise every state a process kill can leave.
    /// Single-threaded callers only; an empty function removes it.
    using write_observer = std::function<void(
        std::uint32_t file, std::size_t offset, std::span<const std::byte>)>;
    void set_write_observer(write_observer obs) {
        observer_ = std::move(obs);
    }

private:
    struct slot {
        int fd = -1;         ///< buffered descriptor, -1 = open failed
        int direct_fd = -1;  ///< O_DIRECT descriptor, -1 = unavailable
    };

    [[nodiscard]] bool aligned_for_direct(std::size_t offset, const void* buf,
                                          std::size_t len) const noexcept;

    file_backend_config cfg_;
    std::size_t capacity_;
    std::vector<slot> files_;
    write_observer observer_;
    std::atomic<std::uint64_t> direct_transfers_{0};
    std::atomic<std::uint64_t> buffered_transfers_{0};
    std::atomic<std::uint64_t> direct_fallbacks_{0};
};

}  // namespace liberation::aio
