// Heap-allocation counts of the array's small and degraded host ops.
//
// This executable replaces the global allocation functions with counting
// versions (so it cannot share a binary with the other suites). Every
// library buffer, aligned_buffer included, comes from ::operator new, so
// an armed probe sees each allocation an operation makes and its size.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "liberation/raid/array.hpp"
#include "liberation/util/rng.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::size_t> g_largest{0};

void* counted_alloc(std::size_t n, std::size_t align) {
    if (g_armed.load(std::memory_order_relaxed)) {
        g_count.fetch_add(1, std::memory_order_relaxed);
        std::size_t prev = g_largest.load(std::memory_order_relaxed);
        while (n > prev && !g_largest.compare_exchange_weak(
                               prev, n, std::memory_order_relaxed)) {
        }
    }
    const std::size_t bytes = n == 0 ? 1 : n;
    void* p =
        align <= alignof(std::max_align_t)
            ? std::malloc(bytes)
            : std::aligned_alloc(align, (bytes + align - 1) / align * align);
    if (p == nullptr) throw std::bad_alloc{};
    return p;
}

void* counted_alloc_nothrow(std::size_t n, std::size_t align) noexcept {
    try {
        return counted_alloc(n, align);
    } catch (...) {
        return nullptr;
    }
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
    return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
    return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    return counted_alloc_nothrow(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    return counted_alloc_nothrow(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
    return counted_alloc_nothrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
    return counted_alloc_nothrow(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
    std::free(p);
}

namespace {

using namespace liberation;
using namespace liberation::raid;

/// Allocations made while the probe is alive (any thread).
class allocation_probe {
public:
    allocation_probe() {
        g_count.store(0);
        g_largest.store(0);
        g_armed.store(true);
    }
    ~allocation_probe() { g_armed.store(false); }
    allocation_probe(const allocation_probe&) = delete;
    allocation_probe& operator=(const allocation_probe&) = delete;

    [[nodiscard]] std::uint64_t count() const { return g_count.load(); }
    [[nodiscard]] std::size_t largest() const { return g_largest.load(); }
};

constexpr std::size_t kElem = 4096;

array_config cfg() {
    array_config c;
    c.k = 4;  // p = 5, 6 disks
    c.element_size = kElem;
    c.sector_size = kElem;
    c.stripes = 4;
    return c;
}

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    util::xoshiro256 rng(seed);
    rng.fill(v);
    return v;
}

/// Host address of data element (row, col) of `stripe`.
std::size_t elem_addr(const raid6_array& a, std::size_t stripe,
                      std::uint32_t col, std::uint32_t row) {
    return stripe * a.map().stripe_data_size() + col * a.map().strip_size() +
           row * kElem;
}

/// A filled array; the image stays valid for read-back checks.
struct fixture {
    raid6_array a{cfg()};
    std::vector<std::byte> image = pattern(a.capacity(), 1);
    fixture() { EXPECT_TRUE(a.write(0, image)); }
    std::uint32_t disk_of(std::size_t stripe, std::uint32_t col) const {
        return a.map().locate(stripe, col).disk;
    }
};

TEST(AllocationCount, HealthyVerifiedReadAllocatesNothing) {
    fixture f;
    ASSERT_TRUE(f.a.verify_reads());
    std::vector<std::byte> out(kElem);
    ASSERT_TRUE(f.a.read(elem_addr(f.a, 0, 0, 0), out));  // warm-up
    const std::size_t addr = elem_addr(f.a, 2, 3, 1);
    std::uint64_t count = 0;
    {
        allocation_probe probe;
        ASSERT_TRUE(f.a.read(addr, out));
        count = probe.count();
    }
    EXPECT_EQ(count, 0u);
    EXPECT_TRUE(std::equal(out.begin(), out.end(),
                           f.image.begin() + static_cast<long>(addr)));
}

/// Runs `op` once to warm up, then again under a probe; returns the
/// largest allocation the second run made.
template <class Op>
std::size_t largest_allocation_after_warmup(Op&& op) {
    op(0);
    allocation_probe probe;
    op(1);
    return probe.largest();
}

TEST(AllocationCount, HealthySmallWriteAllocatesNoElementBuffer) {
    fixture f;
    const auto in = pattern(kElem, 2);
    const std::size_t largest = largest_allocation_after_warmup(
        [&](std::uint32_t row) {
            ASSERT_TRUE(f.a.write(elem_addr(f.a, 1, 2, row), in));
        });
    EXPECT_LT(largest, kElem);
    EXPECT_EQ(f.a.stats().degraded_stripe_reads, 0u);
}

TEST(AllocationCount, DegradedElementReadAllocatesNoElementBuffer) {
    fixture f;
    f.a.fail_disk(f.disk_of(0, 1));
    std::vector<std::byte> out(kElem);
    const std::size_t largest = largest_allocation_after_warmup(
        [&](std::uint32_t row) {
            const std::size_t addr = elem_addr(f.a, 0, 1, row);
            ASSERT_TRUE(f.a.read(addr, out));
            EXPECT_TRUE(std::equal(out.begin(), out.end(),
                                   f.image.begin() + static_cast<long>(addr)));
        });
    EXPECT_LT(largest, kElem);
    EXPECT_EQ(f.a.stats().degraded_element_reads, 2u);
}

TEST(AllocationCount, DegradedStripeReadAllocatesNoElementBuffer) {
    fixture f;
    f.a.fail_disk(f.disk_of(0, 1));
    std::vector<std::byte> out(f.a.map().stripe_data_size());
    const std::size_t largest = largest_allocation_after_warmup(
        [&](std::uint32_t stripe) {
            const std::size_t addr = stripe * out.size();
            ASSERT_TRUE(f.a.read(addr, out));
            EXPECT_TRUE(std::equal(out.begin(), out.end(),
                                   f.image.begin() + static_cast<long>(addr)));
        });
    EXPECT_LT(largest, kElem);
    EXPECT_EQ(f.a.stats().degraded_stripe_reads, 2u);
}

TEST(AllocationCount, DegradedSmallWriteAllocatesNoElementBuffer) {
    fixture f;
    f.a.fail_disk(f.disk_of(0, f.a.code().p_column()));
    const auto in = pattern(kElem, 3);
    const std::size_t largest = largest_allocation_after_warmup(
        [&](std::uint32_t row) {
            ASSERT_TRUE(f.a.write(elem_addr(f.a, 0, 2, row), in));
        });
    EXPECT_LT(largest, kElem);
    // Both writes patched Q in place; P's member is absent.
    EXPECT_EQ(f.a.stats().degraded_stripe_reads, 0u);
    EXPECT_GE(f.a.stats().parity_elements_updated, 2u);
}

TEST(AllocationCount, ReconstructWriteAllocatesNoElementBuffer) {
    fixture f;
    f.a.fail_disk(f.disk_of(0, 2));
    const auto in = pattern(kElem, 4);
    const std::size_t largest = largest_allocation_after_warmup(
        [&](std::uint32_t row) {
            ASSERT_TRUE(f.a.write(elem_addr(f.a, 0, 2, row), in));
        });
    EXPECT_LT(largest, kElem);
    EXPECT_EQ(f.a.stats().degraded_stripe_reads, 2u);
    EXPECT_EQ(f.a.stats().parity_elements_updated, 0u);
}

}  // namespace
