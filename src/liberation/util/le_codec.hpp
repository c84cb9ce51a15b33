// Little-endian codec shared by the on-disk formats (superblock, member
// file header, volume manifest).
//
// Every integer is serialized little-endian, explicitly, with no
// alignment assumptions, so an image written on one host decodes on any
// other. Tables move as one bulk copy on little-endian hosts, where the
// in-memory and on-disk byte orders agree; elsewhere they fall back to
// the per-word byte loop. Both paths produce identical bytes.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "liberation/util/assert.hpp"

namespace liberation::util::le {

inline constexpr bool native_order = std::endian::native == std::endian::little;

template <std::unsigned_integral T>
void store(std::byte* p, T v) noexcept {
    if constexpr (native_order) {
        std::memcpy(p, &v, sizeof v);
    } else {
        for (std::size_t i = 0; i < sizeof v; ++i) {
            p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
        }
    }
}

template <std::unsigned_integral T>
[[nodiscard]] T load(const std::byte* p) noexcept {
    T v = 0;
    if constexpr (native_order) {
        std::memcpy(&v, p, sizeof v);
    } else {
        for (std::size_t i = 0; i < sizeof v; ++i) {
            v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
        }
    }
    return v;
}

/// A table element: an unsigned word, or a padding-free record made of
/// `Word`s only (serialized member by member, in declaration order).
template <class T, class Word>
concept record_of = std::unsigned_integral<Word> &&
                    std::is_trivially_copyable_v<T> &&
                    std::has_unique_object_representations_v<T> &&
                    sizeof(T) % sizeof(Word) == 0;

/// Sequential writer into a buffer the codec sized exactly up front.
class writer {
public:
    explicit writer(std::span<std::byte> out) noexcept : out_(out) {}

    template <std::unsigned_integral T>
    void put(T v) noexcept {
        LIBERATION_EXPECTS(pos_ + sizeof v <= out_.size());
        store(out_.data() + pos_, v);
        pos_ += sizeof v;
    }
    void u8(std::uint8_t v) noexcept { put(v); }
    void u32(std::uint32_t v) noexcept { put(v); }
    void u64(std::uint64_t v) noexcept { put(v); }

    /// A table of `Word`-made records, one bulk copy on little-endian
    /// hosts.
    template <std::unsigned_integral Word, class T>
        requires record_of<T, Word>
    void records(std::span<const T> items) noexcept {
        const std::size_t n = items.size_bytes();
        LIBERATION_EXPECTS(pos_ + n <= out_.size());
        if constexpr (native_order || sizeof(Word) == 1) {
            if (n != 0) std::memcpy(out_.data() + pos_, items.data(), n);
            pos_ += n;
        } else {
            const auto* src = reinterpret_cast<const std::byte*>(items.data());
            for (std::size_t off = 0; off < n; off += sizeof(Word)) {
                Word w;
                std::memcpy(&w, src + off, sizeof w);
                put(w);
            }
        }
    }
    template <std::unsigned_integral T>
    void table(std::span<const T> words) noexcept {
        records<T, T>(words);
    }

    void zeros(std::size_t n) noexcept {
        LIBERATION_EXPECTS(pos_ + n <= out_.size());
        if (n != 0) std::memset(out_.data() + pos_, 0, n);
        pos_ += n;
    }

    [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

private:
    std::span<std::byte> out_;
    std::size_t pos_ = 0;
};

/// Bounds-checked sequential reader; any overrun poisons the parse
/// (`ok` turns false and every later read yields zeros).
struct reader {
    std::span<const std::byte> raw;
    std::size_t pos = 0;
    bool ok = true;

    template <std::unsigned_integral T>
    [[nodiscard]] T get() noexcept {
        if (!fits(sizeof(T))) return 0;
        const T v = load<T>(raw.data() + pos);
        pos += sizeof(T);
        return v;
    }
    [[nodiscard]] std::uint8_t u8() noexcept { return get<std::uint8_t>(); }
    [[nodiscard]] std::uint32_t u32() noexcept { return get<std::uint32_t>(); }
    [[nodiscard]] std::uint64_t u64() noexcept { return get<std::uint64_t>(); }

    /// Fill `items` from the next items.size_bytes() bytes.
    template <std::unsigned_integral Word, class T>
        requires record_of<T, Word>
    void records(std::span<T> items) noexcept {
        const std::size_t n = items.size_bytes();
        if (!fits(n)) return;
        if constexpr (native_order || sizeof(Word) == 1) {
            if (n != 0) std::memcpy(items.data(), raw.data() + pos, n);
        } else {
            auto* dst = reinterpret_cast<std::byte*>(items.data());
            for (std::size_t off = 0; off < n; off += sizeof(Word)) {
                const Word w = load<Word>(raw.data() + pos + off);
                std::memcpy(dst + off, &w, sizeof w);
            }
        }
        pos += n;
    }
    template <std::unsigned_integral T>
    void table(std::span<T> words) noexcept {
        records<T, T>(words);
    }

    void skip(std::size_t n) noexcept {
        if (fits(n)) pos += n;
    }

    /// True when `n` more bytes can be read; poisons the parse otherwise.
    bool fits(std::size_t n) noexcept {
        if (!ok || n > raw.size() - pos) {
            ok = false;
            return false;
        }
        return true;
    }
};

}  // namespace liberation::util::le
