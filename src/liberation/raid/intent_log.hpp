// Write-intent log: closes the RAID-5/6 "write hole".
//
// A stripe update touches several disks; power loss between those writes
// leaves the stripe *torn* — parity inconsistent with data — and a later
// disk failure would then reconstruct garbage silently. The classic fix
// (md's bitmap, hardware NVRAM) is an intent log: persistently record
// "stripe S is being modified" before the first disk write and clear it
// after the last. Recovery after a crash re-syncs parity of exactly the
// stripes that were in flight.
//
// Each entry also records *which columns* the in-flight update targets,
// as a bitmask (so the array is capped at 64 columns). Recovery uses the
// mask to tell a torn write (a targeted column whose checksum mismatches:
// the new bytes half-landed — accept what is on disk and re-sync parity)
// from silent corruption that struck the same stripe while it was torn
// (an *untargeted* column mismatching: the update never meant to touch it,
// so its old checksum is still authoritative).
//
// Every entry additionally carries a monotonic *sequence number*, stamped
// when the stripe is first marked (re-marking widens the mask but keeps
// the original stamp: the hazard began at the first mark). The sequence
// defines the log's replay order — dirty_stripes() returns stripes oldest
// mark first — and survives serialization, so a remounted array replays
// in the same order the crashes happened.
//
// Replay order and the full log. Replay (recover_write_hole) walks the
// entries oldest first. That ordering matters exactly when the log is at
// capacity: each successfully re-synced stripe clears its entry *during*
// the replay, so a full log drains front-to-back and frees capacity for
// new writes as it goes — the oldest hazards, which have been exposed the
// longest, are retired first. Stripes that cannot be re-synced yet (a
// column is unreadable, or power is lost again mid-replay) keep their
// entries and their original stamps; while they hold the log at capacity,
// new writes that need a fresh entry keep failing *loudly*
// (writes_rejected_log_full) — a full log never silently sheds an entry
// and never admits an unjournaled write.
//
// The simulator models the log as a small battery-backed region: its
// contents survive raid6_array::simulate_power_loss(), while in-flight
// disk writes are dropped. The persistence layer (raid/persist/)
// additionally serializes the entries into every disk's superblock, so
// the log also survives a full process kill; restore() rebuilds it at
// mount. Real NVRAM is small, so the log takes a configurable capacity
// (0 = unbounded): when full, mark() refuses and the array fails the
// write *loudly* rather than proceeding unjournaled — an unjournaled torn
// stripe would be silent corruption waiting for a crash. A high-water
// mark records the worst case actually hit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "liberation/util/assert.hpp"

namespace liberation::raid {

class intent_log {
public:
    /// Column mask meaning "assume every column may be in flight" (full
    /// stripe writes, and the conservative fallback paths).
    static constexpr std::uint64_t all_columns = ~std::uint64_t{0};

    /// One journaled stripe, as exposed to replay and serialization.
    struct entry {
        std::size_t stripe;
        std::uint64_t columns;  ///< target-column mask
        std::uint64_t seq;      ///< first-mark stamp; defines replay order
    };

    explicit intent_log(std::size_t capacity = 0) : capacity_(capacity) {}

    /// Mark a stripe dirty with the given target-column mask. Returns
    /// false — and counts a rejection — iff the log is at capacity and the
    /// stripe is not already present. Re-marking a present stripe ORs the
    /// masks (a second update of a torn stripe widens the hazard) and
    /// never fails. (In hardware this is the point where the NVRAM word
    /// is flushed, before any data hits the disks.)
    [[nodiscard]] bool mark(std::size_t stripe,
                            std::uint64_t columns = all_columns) {
        if (auto it = dirty_.find(stripe); it != dirty_.end()) {
            it->second.columns |= columns;
            return true;
        }
        if (capacity_ != 0 && dirty_.size() >= capacity_) {
            ++rejected_;
            return false;
        }
        dirty_.emplace(stripe, record{columns, next_seq_++});
        if (dirty_.size() > high_water_) high_water_ = dirty_.size();
        return true;
    }

    /// Clear a stripe after all its disk writes completed. Returns the
    /// erased entry (columns 0 when the stripe was clean), which the
    /// persistence layer keeps in its on-disk table for one more epoch.
    entry clear(std::size_t stripe) {
        const auto it = dirty_.find(stripe);
        if (it == dirty_.end()) return {stripe, 0, 0};
        const entry e{stripe, it->second.columns, it->second.seq};
        dirty_.erase(it);
        return e;
    }

    [[nodiscard]] bool is_dirty(std::size_t stripe) const {
        return dirty_.count(stripe) != 0;
    }

    /// Target-column mask of a dirty stripe; 0 if the stripe is clean.
    [[nodiscard]] std::uint64_t columns(std::size_t stripe) const {
        auto it = dirty_.find(stripe);
        return it == dirty_.end() ? 0 : it->second.columns;
    }

    /// Dirty stripes in replay order: oldest first mark first.
    [[nodiscard]] std::vector<std::size_t> dirty_stripes() const {
        std::vector<std::size_t> out;
        out.reserve(dirty_.size());
        for (const entry& e : entries()) out.push_back(e.stripe);
        return out;
    }

    /// Visit every entry in stripe order, without allocating.
    template <class F>
    void for_each(F&& f) const {
        for (const auto& [stripe, rec] : dirty_) {
            f(entry{stripe, rec.columns, rec.seq});
        }
    }

    /// Full entries in replay order (serialization and tests).
    [[nodiscard]] std::vector<entry> entries() const {
        std::vector<entry> out;
        out.reserve(dirty_.size());
        for (const auto& [stripe, rec] : dirty_)
            out.push_back({stripe, rec.columns, rec.seq});
        std::sort(out.begin(), out.end(),
                  [](const entry& a, const entry& b) { return a.seq < b.seq; });
        return out;
    }

    /// Reinstall a persisted entry at mount, keeping its original stamp
    /// (so replay order survives the crash). Restoring may exceed a
    /// *smaller* configured capacity — persisted hazards are never shed —
    /// but duplicates are a caller bug.
    void restore(std::size_t stripe, std::uint64_t columns,
                 std::uint64_t seq) {
        LIBERATION_EXPECTS(dirty_.count(stripe) == 0);
        dirty_.emplace(stripe, record{columns, seq});
        if (seq >= next_seq_) next_seq_ = seq + 1;
        if (dirty_.size() > high_water_) high_water_ = dirty_.size();
    }

    [[nodiscard]] std::size_t size() const noexcept { return dirty_.size(); }

    /// Configured capacity; 0 = unbounded.
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

    /// Largest number of simultaneously dirty stripes ever observed.
    [[nodiscard]] std::size_t high_water() const noexcept {
        return high_water_;
    }

    /// Number of mark() calls refused because the log was full.
    [[nodiscard]] std::size_t rejected() const noexcept { return rejected_; }

private:
    struct record {
        std::uint64_t columns;
        std::uint64_t seq;
    };

    std::size_t capacity_;
    std::size_t high_water_ = 0;
    std::size_t rejected_ = 0;
    std::uint64_t next_seq_ = 1;
    std::map<std::size_t, record> dirty_;
};

}  // namespace liberation::raid
