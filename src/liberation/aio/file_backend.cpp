#include "liberation/aio/file_backend.hpp"

#include <cerrno>
#include <cstdint>

#include "liberation/util/assert.hpp"

#if defined(_WIN32)
#error "file_backend requires a POSIX platform"
#endif

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace liberation::aio {

namespace {

/// Full-length positioned read/write: POSIX allows short transfers, the
/// callers do not.
bool pread_all(int fd, std::byte* buf, std::size_t len, std::size_t offset) {
    while (len > 0) {
        const ssize_t n = ::pread(fd, buf, len, static_cast<off_t>(offset));
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        if (n == 0) return false;  // unexpected EOF: file shorter than sized
        buf += n;
        len -= static_cast<std::size_t>(n);
        offset += static_cast<std::size_t>(n);
    }
    return true;
}

bool pwrite_all(int fd, const std::byte* buf, std::size_t len,
                std::size_t offset) {
    while (len > 0) {
        const ssize_t n = ::pwrite(fd, buf, len, static_cast<off_t>(offset));
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        buf += n;
        len -= static_cast<std::size_t>(n);
        offset += static_cast<std::size_t>(n);
    }
    return true;
}

}  // namespace

file_backend::file_backend(std::vector<std::string> paths,
                           std::size_t capacity,
                           const file_backend_config& cfg)
    : cfg_(cfg), capacity_(capacity) {
    files_.reserve(paths.size());
    for (const std::string& path : paths) {
        slot s;
        s.fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
        if (s.fd >= 0) {
            // Size the file so the whole data area reads back (as zeros
            // where never written); an existing longer file is preserved.
            struct stat st{};
            const auto want =
                static_cast<off_t>(cfg_.data_offset + capacity_);
            if (::fstat(s.fd, &st) != 0 ||
                (st.st_size < want && ::ftruncate(s.fd, want) != 0)) {
                ::close(s.fd);
                s.fd = -1;
            }
        }
#if defined(O_DIRECT)
        if (s.fd >= 0 && cfg_.direct_io) {
            // A refusal (tmpfs, some network filesystems) simply leaves
            // the slot buffered-only.
            s.direct_fd =
                ::open(path.c_str(), O_RDWR | O_DIRECT | O_CLOEXEC);
        }
#endif
        files_.push_back(s);
    }
}

file_backend::~file_backend() {
    for (slot& s : files_) {
        if (s.fd >= 0) ::close(s.fd);
        if (s.direct_fd >= 0) ::close(s.direct_fd);
    }
}

bool file_backend::ok(std::uint32_t file) const noexcept {
    return file < files_.size() && files_[file].fd >= 0;
}

bool file_backend::direct_active(std::uint32_t file) const noexcept {
    return file < files_.size() && files_[file].direct_fd >= 0;
}

file_backend_stats file_backend::stats() const noexcept {
    return {direct_transfers_.load(std::memory_order_relaxed),
            buffered_transfers_.load(std::memory_order_relaxed),
            direct_fallbacks_.load(std::memory_order_relaxed)};
}

bool file_backend::aligned_for_direct(std::size_t offset, const void* buf,
                                      std::size_t len) const noexcept {
    return offset % direct_alignment == 0 && len % direct_alignment == 0 &&
           len > 0 &&
           reinterpret_cast<std::uintptr_t>(buf) % direct_alignment == 0;
}

raid::io_status file_backend::execute(const io_desc& d) {
    if (!ok(d.disk)) return raid::io_status::disk_failed;
    if (d.offset + d.len > capacity_ || d.offset + d.len < d.offset) {
        return raid::io_status::out_of_range;
    }
    const slot& s = files_[d.disk];
    const std::size_t abs = cfg_.data_offset + d.offset;
    const bool is_read = d.kind == op_kind::read;

    // Route through O_DIRECT when every alignment constraint holds; a
    // kernel refusal falls back to the buffered descriptor so direct I/O
    // can never fail a request alignment would have allowed buffered.
    if (s.direct_fd >= 0 && aligned_for_direct(abs, d.data, d.len)) {
        const bool direct_ok =
            is_read ? pread_all(s.direct_fd, d.data, d.len, abs)
                    : pwrite_all(s.direct_fd, d.data, d.len, abs);
        if (direct_ok) {
            direct_transfers_.fetch_add(1, std::memory_order_relaxed);
            if (!is_read && cfg_.sync_data && ::fdatasync(s.direct_fd) != 0) {
                return raid::io_status::disk_failed;
            }
            return raid::io_status::ok;
        }
        direct_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }

    const bool io_ok = is_read ? pread_all(s.fd, d.data, d.len, abs)
                               : pwrite_all(s.fd, d.data, d.len, abs);
    if (!io_ok) {
        // A read error is a media problem on that extent; a write error
        // means the file (the "disk") cannot accept I/O at all.
        return is_read ? raid::io_status::unreadable_sector
                       : raid::io_status::disk_failed;
    }
    buffered_transfers_.fetch_add(1, std::memory_order_relaxed);
    if (!is_read && cfg_.sync_data && ::fdatasync(s.fd) != 0) {
        return raid::io_status::disk_failed;
    }
    return raid::io_status::ok;
}

bool file_backend::read_data(std::uint32_t file, std::size_t offset,
                             std::span<std::byte> out) {
    io_desc d;
    d.disk = file;
    d.kind = op_kind::read;
    d.offset = offset;
    d.data = out.data();
    d.len = out.size();
    return execute(d) == raid::io_status::ok;
}

bool file_backend::write_data(std::uint32_t file, std::size_t offset,
                              std::span<const std::byte> in) {
    io_desc d;
    d.disk = file;
    d.kind = op_kind::write;
    d.offset = offset;
    d.data = const_cast<std::byte*>(in.data());
    d.len = in.size();
    if (execute(d) != raid::io_status::ok) return false;
    if (observer_) observer_(file, cfg_.data_offset + offset, in);
    return true;
}

bool file_backend::pread_raw(std::uint32_t file, std::size_t offset,
                             std::span<std::byte> out) {
    if (!ok(file)) return false;
    return pread_all(files_[file].fd, out.data(), out.size(), offset);
}

bool file_backend::pwrite_raw(std::uint32_t file, std::size_t offset,
                              std::span<const std::byte> in) {
    if (!ok(file) ||
        !pwrite_all(files_[file].fd, in.data(), in.size(), offset)) {
        return false;
    }
    if (observer_) observer_(file, offset, in);
    return true;
}

bool file_backend::flush(std::uint32_t file) {
    if (!ok(file)) return false;
    return ::fdatasync(files_[file].fd) == 0;
}

bool file_backend::flush_all() {
    bool all = true;
    for (std::uint32_t f = 0; f < files_.size(); ++f) {
        if (files_[f].fd >= 0 && ::fdatasync(files_[f].fd) != 0) all = false;
    }
    return all;
}

}  // namespace liberation::aio
