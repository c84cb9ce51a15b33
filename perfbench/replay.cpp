// Content model, op splitting, and the layer replay of a traced run.
//
// The replay issues one fixed op list at each layer boundary in turn,
// on the bytes the volume currently holds, with a span around every
// call: volume::read/write, then raid6_array::read/write on the
// shard-local extents from volume::locate, then the codec calls
// (encode_crc / apply_update / decode) on stripes rebuilt from the
// content model, then the xorops/integrity kernels over those stripes,
// then store::persist / write_data on persistent volumes. A layer's self
// time is its span time minus the time of the layer below for the same
// op; see README.md.
#include <algorithm>
#include <cstring>

#include "bench.hpp"
#include "liberation/codes/stripe.hpp"
#include "liberation/raid/persist/store.hpp"
#include "liberation/util/aligned_buffer.hpp"
#include "liberation/xorops/xorops.hpp"

namespace perfbench {

namespace lib = liberation;

void shadow::fill(std::size_t block, std::uint32_t g, std::byte* dst) const {
    std::uint64_t s[4];
    s[0] = mix64(seed_ ^ mix64(block) ^ (static_cast<std::uint64_t>(g) << 32));
    for (int l = 1; l < 4; ++l) s[l] = mix64(s[l - 1]);
    for (std::uint64_t& x : s) x |= 1;  // xorshift state must be nonzero
    for (std::size_t i = 0; i < kElem; i += 32) {
        for (int l = 0; l < 4; ++l) {
            std::uint64_t x = s[l];
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            s[l] = x;
            std::memcpy(dst + i + 8 * l, &x, 8);
        }
    }
}

void shadow::current(std::size_t addr, std::span<std::byte> out) const {
    for (std::size_t off = 0; off < out.size(); off += kElem) {
        const std::size_t b = (addr + off) / kElem;
        fill(b, gen_[b], out.data() + off);
    }
}

void shadow::advance(std::size_t addr, std::span<std::byte> out) {
    for (std::size_t off = 0; off < out.size(); off += kElem) ++gen_[(addr + off) / kElem];
    current(addr, out);
}

std::size_t shadow::wrong_blocks(std::size_t addr,
                                 std::span<const std::byte> got) const {
    alignas(64) std::byte want[kElem];
    std::size_t bad = 0;
    for (std::size_t off = 0; off < got.size(); off += kElem) {
        const std::size_t b = (addr + off) / kElem;
        fill(b, gen_[b], want);
        if (std::memcmp(want, got.data() + off, kElem) != 0) ++bad;
    }
    return bad;
}

std::uint64_t superblock_writes(lib::volume::volume& vol) {
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < vol.shard_count(); ++s)
        if (auto* st = vol.shard(s).persistence())
            for (std::uint32_t slot = 0; slot < st->slot_count(); ++slot)
                n += st->image(slot).seq;
    return n;
}

namespace {

/// One shard's share of a host op: the gapless shard-local extent and the
/// host-buffer slices that map onto it, in order.
struct shard_piece {
    std::uint32_t shard = 0;
    std::size_t local = 0;
    struct slice {
        std::size_t host_off;
        std::size_t len;
    };
    std::vector<slice> slices;
    std::size_t len = 0;
};

std::vector<shard_piece> split_by_shard(const lib::volume::volume& vol,
                                        const op& o) {
    std::vector<shard_piece> pieces;
    const std::size_t cb = vol.chunk_bytes();
    for (std::size_t off = 0; off < o.len;) {
        const std::size_t a = o.addr + off;
        const lib::volume::extent_location loc = vol.locate(a);
        const std::size_t n = std::min(o.len - off, cb - a % cb);
        auto it = std::find_if(pieces.begin(), pieces.end(),
                               [&](const shard_piece& p) { return p.shard == loc.shard; });
        if (it == pieces.end()) {
            pieces.push_back({loc.shard, loc.addr, {}, 0});
            it = pieces.end() - 1;
        }
        it->slices.push_back({off, n});
        it->len += n;
        off += n;
    }
    return pieces;
}

/// Volume address of shard-local address `local` on shard `s`.
std::size_t volume_addr(std::uint32_t s, std::size_t local) {
    const std::size_t chunk = local / kStripeData;
    return (chunk * kShards + s) * kStripeData + local % kStripeData;
}

struct span_sum {
    double ns = 0;
    std::uint64_t calls = 0;
    void add(std::uint64_t t0, std::uint64_t t1) {
        ns += static_cast<double>(t1 - t0);
        ++calls;
    }
    [[nodiscard]] double us_per_call() const {
        return calls ? ns / 1e3 / static_cast<double>(calls) : 0;
    }
};

double ratio(double n, double d) { return d > 0 ? n / d : 0; }

/// Codeword of local stripe `t` on shard `s` as the content model says it
/// should be: data columns from the host bytes, parity encoded (untimed)
/// unless `encode` is false.
void load_stripe(const shadow& sh, const lib::core::liberation_optimal_code& code,
                 std::uint32_t s, std::size_t t, const lib::codes::stripe_view& v,
                 bool encode) {
    const std::size_t base = volume_addr(s, t * kStripeData);
    for (std::uint32_t c = 0; c < kK; ++c)
        for (std::uint32_t r = 0; r < kP; ++r) {
            const std::size_t b = (base + c * kStrip + r * kElem) / kElem;
            sh.fill(b, sh.gen(b), v.element(r, c));
        }
    if (encode) code.encode(v);
}

/// True when the parity strips of `v` equal what the array stored for
/// local stripe `t`; columns on failed disks are skipped.
bool parity_matches_disks(lib::raid::raid6_array& a, std::size_t t,
                          const lib::codes::stripe_view& v,
                          lib::util::aligned_buffer& tmp) {
    for (std::uint32_t c = kK; c < kK + 2; ++c) {
        const lib::raid::strip_location loc = a.map().locate(t, c);
        if (!a.disk(loc.disk).online()) continue;
        a.disk(loc.disk).peek(loc.offset, tmp.span());
        if (std::memcmp(tmp.data(), v.strip(c).data(), kStrip) != 0) return false;
    }
    return true;
}

struct kernel_spans {
    span_sum xor_many, copy_crc, crc;
    double xor_bytes = 0, copy_bytes = 0, crc_bytes = 0;

    /// The kernels under the codec, once over the data strips of `v`.
    void run(const lib::codes::stripe_view& v, lib::util::aligned_buffer& dst) {
        std::uint32_t crcs[kP];
        const std::byte* srcs[kK];
        for (std::uint32_t c = 0; c < kK; ++c) srcs[c] = v.strip(c).data();
        std::uint64_t t0 = now_ns();
        lib::xorops::xor_many(dst.data(), srcs, kK, kStrip);
        xor_many.add(t0, now_ns());
        xor_bytes += static_cast<double>(kK * kStrip);
        for (std::uint32_t c = 0; c < kK; ++c) {
            t0 = now_ns();
            lib::xorops::copy_crc32c_blocks(dst.data(), srcs[c], kStrip, kElem, crcs);
            copy_crc.add(t0, now_ns());
            t0 = now_ns();
            lib::xorops::crc32c_blocks(srcs[c], kStrip, kElem, crcs);
            crc.add(t0, now_ns());
        }
        copy_bytes += static_cast<double>(kK * kStrip);
        crc_bytes += static_cast<double>(kK * kStrip);
    }
};

}  // namespace

replay_result replay_layers(lib::volume::volume& vol, const shadow& sh,
                            std::span<const op> ops) {
    replay_result out;
    const auto& code = vol.shard(0).code();
    const auto check = [&](bool ok) {
        ++out.checks;
        if (!ok) ++out.check_fails;
    };

    lib::util::aligned_buffer host(kRound), piece(kRound), tmp(kStrip),
        elem(kElem), old_elem(kElem);
    lib::codes::stripe_buffer sbuf(kP, kK + 2, kElem);
    const lib::codes::stripe_view v = sbuf.view();

    // 1. volume::read / volume::write.
    std::vector<double> vol_ns(ops.size());
    span_sum vol_writes, vol_reads;
    double vol_read_bytes = 0, vol_write_bytes = 0;
    std::uint64_t sb_writes = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const op& o = ops[i];
        const std::span<std::byte> b = host.span().first(o.len);
        if (o.write) {
            sh.current(o.addr, b);
            const std::uint64_t sb0 = superblock_writes(vol);
            const std::uint64_t t0 = now_ns();
            check(vol.write(o.addr, b));
            const std::uint64_t t1 = now_ns();
            sb_writes += superblock_writes(vol) - sb0;
            vol_writes.add(t0, t1);
            vol_write_bytes += static_cast<double>(o.len);
            vol_ns[i] = static_cast<double>(t1 - t0);
        } else {
            const std::uint64_t t0 = now_ns();
            const bool ok = vol.read(o.addr, b);
            const std::uint64_t t1 = now_ns();
            check(ok && sh.wrong_blocks(o.addr, b) == 0);
            vol_reads.add(t0, t1);
            vol_read_bytes += static_cast<double>(o.len);
            vol_ns[i] = static_cast<double>(t1 - t0);
        }
    }

    // 2. raid6_array::read / write on the shard-local extents. Threaded
    // dispatch runs the shards of one host op in parallel, so the volume
    // waits for the slowest shard: that is the time charged below it.
    span_sum raid_reads, raid_writes;
    double vol_self_ns = 0, raid_full_write_ns = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const op& o = ops[i];
        const std::span<std::byte> b = host.span().first(o.len);
        sh.current(o.addr, b);
        double crit = 0;
        for (const shard_piece& p : split_by_shard(vol, o)) {
            auto& arr = vol.shard(p.shard);
            const std::span<std::byte> pb = piece.span().first(p.len);
            std::size_t at = 0;
            if (o.write)
                for (const auto& sl : p.slices) {
                    std::memcpy(pb.data() + at, b.data() + sl.host_off, sl.len);
                    at += sl.len;
                }
            const std::uint64_t t0 = now_ns();
            const bool ok = o.write ? arr.write(p.local, pb) : arr.read(p.local, pb);
            const std::uint64_t t1 = now_ns();
            (o.write ? raid_writes : raid_reads).add(t0, t1);
            if (o.write && p.len % kStripeData == 0)
                raid_full_write_ns += static_cast<double>(t1 - t0);
            crit = std::max(crit, static_cast<double>(t1 - t0));
            bool same = ok;
            at = 0;
            if (!o.write)
                for (const auto& sl : p.slices) {
                    same = same && std::memcmp(pb.data() + at, b.data() + sl.host_off,
                                               sl.len) == 0;
                    at += sl.len;
                }
            check(same);
        }
        vol_self_ns += vol_ns[i] - crit;
    }

    // 3. Codec calls on the same stripes, and 4. the kernels under them.
    span_sum encode, update;
    std::uint64_t encode_xors = 0, update_xors = 0;
    kernel_spans kern;
    std::uint32_t pcrc[kP], qcrc[kP];
    for (const op& o : ops) {
        if (!o.write) continue;
        for (const shard_piece& p : split_by_shard(vol, o)) {
            auto& arr = vol.shard(p.shard);
            const std::size_t t = p.local / kStripeData;
            if (p.len % kStripeData == 0 && p.local % kStripeData == 0) {
                for (std::size_t st = t; st < t + p.len / kStripeData; ++st) {
                    load_stripe(sh, code, p.shard, st, v, false);
                    lib::xorops::counting_scope cs;
                    const std::uint64_t t0 = now_ns();
                    code.encode_crc(v, kElem, pcrc, qcrc);
                    encode.add(t0, now_ns());
                    encode_xors += cs.xors();
                    check(parity_matches_disks(arr, st, v, tmp));
                    kern.run(v, tmp);
                }
                continue;
            }
            // Small write: one element. Replay the parity patch from the
            // current bytes back to the previous generation's, then check
            // that the patched parity encodes the reverted stripe.
            load_stripe(sh, code, p.shard, t, v, true);
            const std::size_t in_stripe = p.local % kStripeData;
            const auto col = static_cast<std::uint32_t>(in_stripe / kStrip);
            const auto row = static_cast<std::uint32_t>(in_stripe % kStrip / kElem);
            const std::size_t block = o.addr / kElem;
            const std::uint32_t g = sh.gen(block);
            if (g == 0) continue;
            sh.fill(block, g - 1, old_elem.data());
            lib::xorops::xor2(elem.data(), v.element(row, col), old_elem.data(), kElem);
            lib::xorops::counting_scope cs;
            const std::uint64_t t0 = now_ns();
            (void)code.apply_update(v, row, col, elem.span());
            update.add(t0, now_ns());
            update_xors += cs.xors();
            std::memcpy(v.element(row, col), old_elem.data(), kElem);
            check(code.verify(v));
            kern.run(v, tmp);
        }
    }

    // 5. store::persist and store::write_data (persistent volumes only):
    // every slot's superblock once per host write, and the element's data
    // and row-parity bytes rewritten in place.
    span_sum sb_persist, data_write;
    double data_bytes = 0;
    if (vol.persistent()) {
        for (const op& o : ops) {
            if (!o.write) continue;
            for (const shard_piece& p : split_by_shard(vol, o)) {
                auto& arr = vol.shard(p.shard);
                auto* st = arr.persistence();
                for (std::uint32_t slot = 0; slot < st->slot_count(); ++slot) {
                    const std::uint64_t t0 = now_ns();
                    check(st->persist(slot));
                    sb_persist.add(t0, now_ns());
                }
                const std::size_t t = p.local / kStripeData;
                const std::size_t in_stripe = p.local % kStripeData;
                const auto col = static_cast<std::uint32_t>(in_stripe / kStrip);
                const std::size_t row_off = in_stripe % kStrip / kElem * kElem;
                for (std::uint32_t c : {col, kK}) {
                    const lib::raid::strip_location loc = arr.map().locate(t, c);
                    if (!st->read_data(loc.disk, loc.offset + row_off, elem.span())) {
                        check(false);
                        continue;
                    }
                    const std::uint64_t t0 = now_ns();
                    check(st->write_data(loc.disk, loc.offset + row_off, elem.span()));
                    data_write.add(t0, now_ns());
                    data_bytes += kElem;
                }
            }
        }
    }

    const double n_ops = static_cast<double>(ops.size());
    const double sb_per_write = ratio(static_cast<double>(sb_writes),
                                      static_cast<double>(vol_writes.calls));
    const double data_us_per_write =
        ratio(data_write.ns / 1e3, static_cast<double>(vol_writes.calls));
    const double persist_us_per_write =
        sb_per_write * sb_persist.us_per_call() + data_us_per_write;
    out.volume_self_us_per_op = ratio(vol_self_ns / 1e3, n_ops);
    out.volume_read_gbps = ratio(vol_read_bytes, vol_reads.ns);
    out.volume_write_gbps = ratio(vol_write_bytes, vol_writes.ns);
    out.metrics = {
        {"volume.self_us_per_op", "us", out.volume_self_us_per_op},
        {"raid.read_us_per_op", "us", raid_reads.us_per_call()},
        {"raid.write_us_per_op", "us", raid_writes.us_per_call()},
        {"core.encode_crc_us_per_stripe", "us", encode.us_per_call()},
        {"core.encode_share_of_write", "ratio", ratio(encode.ns, raid_full_write_ns)},
        {"core.encode_xors_per_stripe", "count",
         ratio(static_cast<double>(encode_xors), static_cast<double>(encode.calls))},
        {"core.update_us_per_small_write", "us", update.us_per_call()},
        {"core.update_xors_per_small_write", "count",
         ratio(static_cast<double>(update_xors), static_cast<double>(update.calls))},
        {"xorops.xor_gbps", "GB/s", ratio(kern.xor_bytes, kern.xor_many.ns)},
        {"xorops.copy_crc_gbps", "GB/s", ratio(kern.copy_bytes, kern.copy_crc.ns)},
        {"integrity.crc_gbps", "GB/s", ratio(kern.crc_bytes, kern.crc.ns)},
        {"persist.superblock_persist_us", "us", sb_persist.us_per_call()},
        {"persist.data_write_us_per_mib", "us",
         ratio(data_write.ns / 1e3, data_bytes / (1 << 20))},
        {"persist.share_of_write", "ratio",
         ratio(persist_us_per_write, vol_writes.us_per_call())},
    };
    return out;
}

void replay_rebuild_decode(lib::volume::volume& vol, const shadow& content,
                           std::span<const std::uint32_t> failed_disks,
                           double rebuild_us_per_stripe, replay_result& out) {
    const auto& code = vol.shard(0).code();
    lib::codes::stripe_buffer sbuf(kP, kK + 2, kElem);
    lib::codes::stripe_buffer want(kP, kK + 2, kElem);
    const lib::codes::stripe_view v = sbuf.view();
    span_sum decode;
    std::uint64_t xors = 0;
    for (std::uint32_t s = 0; s < vol.shard_count(); ++s) {
        const auto& map = vol.shard(s).map();
        for (std::size_t t = 0; t < kStripesPerShard; ++t) {
            load_stripe(content, code, s, t, want.view(), true);
            lib::codes::copy_stripe(v, want.view());
            std::vector<std::uint32_t> erased;
            for (std::uint32_t d : failed_disks) erased.push_back(map.column_of_disk(t, d));
            std::sort(erased.begin(), erased.end());
            for (std::uint32_t c : erased) std::memset(v.strip(c).data(), 0xa5, kStrip);
            lib::xorops::counting_scope cs;
            const std::uint64_t t0 = now_ns();
            code.decode(v, erased);
            decode.add(t0, now_ns());
            xors += cs.xors();
            ++out.checks;
            if (!lib::codes::stripes_equal(v, want.view())) ++out.check_fails;
        }
    }
    out.metrics.push_back({"core.decode_us_per_stripe", "us", decode.us_per_call()});
    out.metrics.push_back({"core.decode_share_of_rebuild", "ratio",
                           ratio(decode.us_per_call(), rebuild_us_per_stripe)});
    out.metrics.push_back({"core.decode_xors_per_stripe", "count",
                           ratio(static_cast<double>(xors),
                                 static_cast<double>(decode.calls))});
}

}  // namespace perfbench
