// Wall-clock benchmark of the sharded RAID-6 volume through its public
// API. One closed-loop client (the next op is issued only after the
// previous one returns) drives one of four workloads; every byte read is
// compared with the seed-derived content model, and the last stdout line
// is one JSON object:
//
//   volbench --workload W --seed N --seconds S --trace 0|1 --store-dir D
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates the
// timed loop's iterations between an untraced and a traced window (a span
// around every host op), then replays a fixed op list one layer boundary
// at a time (replay.cpp), and reports the per-layer metrics. See
// README.md.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "liberation/raid/persist/store.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/util/aligned_buffer.hpp"
#include "liberation/volume/mount.hpp"

namespace perfbench {
namespace {

liberation::volume::volume_config volume_cfg() {
    liberation::volume::volume_config cfg;
    cfg.shards = kShards;
    cfg.shard.k = kK;
    cfg.shard.p = kP;
    cfg.shard.element_size = kElem;
    cfg.shard.stripes = kStripesPerShard;
    cfg.chunk_stripes = 1;
    // threaded_dispatch and io_workers_per_shard keep their defaults
    // (4 dispatcher threads, inline aio): the configuration users get.
    return cfg;
}

using liberation::volume::volume;
namespace vp = liberation::volume::persist;

enum class workload { seq_stream, rand_4k_mixed, degraded_rebuild, persist_rand_4k };

/// Sequential one-chunk ops (one full stripe on one shard): a
/// full-volume write pass, then a read pass, alternating. The seed only
/// changes the bytes written.
class seq_ops {
public:
    [[nodiscard]] op next() {
        const std::size_t pass = i_ / kChunks;
        const op o{pass % 2 == 0, (i_ % kChunks) * kStripeData, kStripeData};
        ++i_;
        return o;
    }

private:
    std::size_t i_ = 0;
};

/// Uniform random 4 KiB ops, 70% reads / 30% writes.
class mix_ops {
public:
    static constexpr unsigned kWritePercent = 30;
    explicit mix_ops(std::uint64_t seed) : s_(mix64(seed ^ 0x6d69785f6f7073ULL)) {}
    [[nodiscard]] op next() {
        const std::uint64_t a = mix64(s_++);
        const std::uint64_t b = mix64(s_++);
        return {b % 100 < kWritePercent, (a % kBlocks) * kElem, kElem};
    }

private:
    std::uint64_t s_;
};

constexpr int kSetupReps = 3;
/// Ops per rate slice: a fifth of a seq_stream pass, 2000 random ops;
/// a degraded_rebuild slice is one cycle. Rates are medians over slices.
constexpr std::size_t kSeqSlice = kChunks / 5;
constexpr std::size_t kMixSlice = 2000;
/// Tail percentiles are taken over consecutive groups of this many ops of
/// one type (ten samples beyond the p99), and the median group is
/// reported.
constexpr std::size_t kTailGroup = 1000;
/// Count metrics are read over this fixed prefix of the op stream so they
/// repeat exactly for a seed, however many ops the time budget allows.
constexpr std::size_t kMixPrefix = 4000;
constexpr std::size_t kServeOpsPerCycle = 20000;
/// Upper bound on host ops per second of any workload (rand_4k_mixed runs
/// about 250k), for reserving the per-op records.
constexpr double kMaxOpsPerSecond = 600000;
/// Ops replayed per layer in a traced run (a prefix of the same stream),
/// and the chunk rounds of the seq_stream fan-out replay.
constexpr std::size_t kReplayMixOps = 2000;
constexpr std::size_t kReplaySeqOps = kSeqSlice;
constexpr std::size_t kFanoutRounds = 149;

struct args {
    workload wl = workload::rand_4k_mixed;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string store_dir;
};

args parse_args(int argc, char** argv) {
    args a;
    bool have_wl = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload") {
            have_wl = true;
            if (v == "seq_stream") a.wl = workload::seq_stream;
            else if (v == "rand_4k_mixed") a.wl = workload::rand_4k_mixed;
            else if (v == "degraded_rebuild") a.wl = workload::degraded_rebuild;
            else if (v == "persist_rand_4k") a.wl = workload::persist_rand_4k;
            else throw std::runtime_error("unknown workload " + v);
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
            if (!(a.seconds > 0 && a.seconds <= 120))
                throw std::runtime_error("--seconds out of range");
        } else if (k == "--trace") {
            if (v != "0" && v != "1") throw std::runtime_error("--trace is 0 or 1");
            a.trace = v == "1";
        } else if (k == "--store-dir") {
            a.store_dir = v;
        } else {
            throw std::runtime_error("unknown argument " + k);
        }
    }
    if (!have_wl) throw std::runtime_error("--workload is required");
    if (a.wl == workload::persist_rand_4k && a.store_dir.empty())
        throw std::runtime_error("persist_rand_4k needs --store-dir");
    return a;
}

// ---- counter snapshots --------------------------------------------------

struct counts {
    liberation::volume::volume_stats vs;
    std::uint64_t dev_reads = 0, dev_writes = 0;
    std::uint64_t dev_read_bytes = 0, dev_write_bytes = 0;
    std::uint64_t sb_writes = 0, sb_bytes = 0;
    std::uint64_t aio_submitted = 0, aio_batches = 0, aio_merges = 0;
    std::uint64_t aio_highwater = 0;
    std::uint64_t retries = 0;
};

counts snapshot(volume& v) {
    counts c;
    c.vs = v.stats();
    c.sb_writes = superblock_writes(v);
    if (auto* st = v.shard(0).persistence()) c.sb_bytes = c.sb_writes * st->slot_bytes();
    for (std::uint32_t s = 0; s < v.shard_count(); ++s) {
        auto& a = v.shard(s);
        for (std::uint32_t d = 0; d < a.disk_count(); ++d) {
            const auto ds = a.disk(d).stats();
            c.dev_reads += ds.reads;
            c.dev_writes += ds.writes;
            c.dev_read_bytes += ds.bytes_read;
            c.dev_write_bytes += ds.bytes_written;
        }
        const auto as = a.aio_engine().stats();
        c.aio_submitted += as.submitted;
        c.aio_batches += as.batches;
        c.aio_merges += as.merges;
        c.aio_highwater = std::max(c.aio_highwater, as.inflight_highwater);
        c.retries += a.io_stats().retries;
    }
    return c;
}

/// Counters around the count prefix. `served` closes the host-op part;
/// `end` also covers the degraded_rebuild cycle's rebuild (it equals
/// `served` elsewhere).
struct prefix_counts {
    counts begin, served, end;
};

// ---- process and host noise ---------------------------------------------

struct proc_sample {
    rusage ru{};
    std::uint64_t steal = 0, total = 0;
};

proc_sample sample_proc() {
    proc_sample p;
    getrusage(RUSAGE_SELF, &p.ru);
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    std::uint64_t v = 0;
    for (int i = 0; i < 8 && (f >> v); ++i) {
        p.total += v;
        if (i == 7) p.steal = v;
    }
    return p;
}

double tv_s(const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
}

struct proc_delta {
    double minor_faults = 0, sys_s = 0, user_s = 0, invol = 0;
    double steal_share = 0;
};

proc_delta delta(const proc_sample& a, const proc_sample& b) {
    proc_delta d;
    d.minor_faults = static_cast<double>(b.ru.ru_minflt - a.ru.ru_minflt);
    d.sys_s = tv_s(b.ru.ru_stime) - tv_s(a.ru.ru_stime);
    d.user_s = tv_s(b.ru.ru_utime) - tv_s(a.ru.ru_utime);
    d.invol = static_cast<double>(b.ru.ru_nivcsw - a.ru.ru_nivcsw);
    const std::uint64_t tot = b.total - a.total;
    d.steal_share =
        tot ? static_cast<double>(b.steal - a.steal) / static_cast<double>(tot) : 0;
    return d;
}

// ---- per-window accounting ----------------------------------------------

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double quantile_us(std::vector<std::uint32_t> ns, double q) {
    if (ns.empty()) return 0;
    const auto i = static_cast<std::size_t>(q * static_cast<double>(ns.size() - 1));
    std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(i), ns.end());
    return ns[i] / 1e3;
}

/// Median over consecutive kTailGroup-op groups of each group's `q`
/// quantile (all ops pooled when there are fewer than two groups).
double tail_us(const std::vector<std::uint32_t>& ns, double q) {
    if (ns.size() < 2 * kTailGroup) return quantile_us(ns, q);
    std::vector<double> g;
    for (std::size_t i = 0; i + kTailGroup <= ns.size(); i += kTailGroup)
        g.push_back(quantile_us({ns.begin() + static_cast<std::ptrdiff_t>(i),
                                 ns.begin() + static_cast<std::ptrdiff_t>(i + kTailGroup)},
                                q));
    return median(g);
}

struct slice_acc {
    std::uint64_t ops = 0, rb = 0, wb = 0, rt = 0, wt = 0, other = 0;
};

struct window {
    std::vector<std::uint32_t> read_ns, write_ns;
    std::vector<slice_acc> closed;
    slice_acc cur;
    std::uint64_t ops = 0, failed = 0;
    std::uint64_t rebuild_bytes = 0, rebuild_ns = 0, rebuild_stripes = 0;
    std::vector<double> rebuild_rate;
    /// Traced windows keep one span per host op.
    bool traced = false;
    struct span {
        std::uint64_t t0, t1;
    };
    std::vector<span> spans;

    void close_slice() {
        closed.push_back(cur);
        cur = {};
    }
};

/// The end-to-end metrics of one window (write_amp and setup_s are added
/// by the caller: they come from the count prefix and the set-up reps).
/// `pair` > 0 joins slice i with slice i + pair for the op rate, so that
/// every sample holds both op types (seq_stream slices hold one type).
metric_list window_metrics(const window& w, std::size_t pair) {
    const auto rate = [](std::uint64_t n, std::uint64_t ns) {
        return static_cast<double>(n) / static_cast<double>(ns);
    };
    std::vector<double> read_rate, write_rate, op_rate;
    for (const slice_acc& c : w.closed) {
        if (c.rt) read_rate.push_back(rate(c.rb, c.rt));
        if (c.wt) write_rate.push_back(rate(c.wb, c.wt));
    }
    for (std::size_t i = 0; i < w.closed.size(); ++i) {
        slice_acc c = w.closed[i];
        if (pair) {
            if (i / pair % 2 || i + pair >= w.closed.size()) continue;
            const slice_acc& d = w.closed[i + pair];
            c.ops += d.ops;
            c.rt += d.rt;
            c.wt += d.wt;
            c.other += d.other;
        }
        const std::uint64_t busy = c.rt + c.wt + c.other;
        if (busy) op_rate.push_back(rate(c.ops, busy) * 1e9);
    }
    return {
        {"ops_per_s", "ops/s", median(op_rate)},
        {"read_gbps", "GB/s", median(read_rate)},
        {"write_gbps", "GB/s", median(write_rate)},
        {"read_p50_us", "us", quantile_us(w.read_ns, 0.50)},
        {"read_p99_us", "us", tail_us(w.read_ns, 0.99)},
        {"write_p50_us", "us", quantile_us(w.write_ns, 0.50)},
        {"write_p99_us", "us", tail_us(w.write_ns, 0.99)},
    };
}

void print_json(const char* prefix, bool correct, std::uint64_t attempted,
                std::uint64_t failed, const metric_list& m) {
    std::string s = std::string(prefix) + "{\"correct\": " +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < m.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", m[i].value);
        s += (i ? ", \"" : "\"") + m[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m[i].unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
}

// ---- the benchmark ------------------------------------------------------

class runner {
public:
    explicit runner(const args& a)
        : a_(a), sh_(a.seed), mix_(a.seed), buf_(kStripeData) {}

    int run();

private:
    [[nodiscard]] bool persistent() const {
        return a_.wl == workload::persist_rand_4k;
    }
    /// Disk pair failed in cycle `c`: the distance between the two disks
    /// steps through 1..5, so with rotating parity every five cycles
    /// erase every pair of codeword columns somewhere, parity included.
    [[nodiscard]] static std::vector<std::uint32_t> pair_for_cycle(std::size_t c) {
        const auto a = static_cast<std::uint32_t>(c % (kK + 2));
        const auto dist = static_cast<std::uint32_t>(1 + c % 5);
        return {a, (a + dist) % (kK + 2)};
    }

    double setup();
    void make_volume();
    void prefill();
    void run_op(const op& o, window& w);
    /// Run the workload's iterations until `seconds` have passed;
    /// `prefix` receives the counters around the count prefix. With
    /// `traced`, odd iterations go to that window instead of `w`.
    void run_window(window& w, double seconds, prefix_counts* prefix,
                    window* traced = nullptr);
    void degraded_cycle(window& w, bool timed, prefix_counts* prefix);
    void rebuild_pair(const std::vector<std::uint32_t>& pair, window* w);
    void flush_store();
    double remount();
    void verify_all();
    /// The traced run's layer replay (see replay.cpp).
    replay_result replay();

    void check(bool ok) {
        ++checks_;
        if (!ok) ++checks_failed_;
    }

    args a_;
    shadow sh_;
    seq_ops seq_;
    mix_ops mix_;
    std::size_t cycle_ = 0;
    std::unique_ptr<volume> vol_;
    liberation::util::aligned_buffer buf_;
    /// Checks outside the timed windows: warm-up ops, rebuild results,
    /// the read-back after remount.
    std::uint64_t checks_ = 0, checks_failed_ = 0;
};

void runner::make_volume() {
    vol_.reset();
    if (!persistent()) {
        vol_ = std::make_unique<volume>(volume_cfg());
        return;
    }
    std::filesystem::remove_all(a_.store_dir);
    // The store keeps its default flush policy on both sides of every
    // comparison: no O_DIRECT, no fdatasync of metadata or data.
    vp::volume_store_config scfg;
    scfg.dir = a_.store_dir;
    vol_ = vp::create_volume(volume_cfg(), scfg, mix64(a_.seed) | 1);
    if (!vol_) throw std::runtime_error("create_volume failed in " + a_.store_dir);
}

void runner::prefill() {
    sh_.set_all(0);
    for (std::size_t c = 0; c < kChunks; ++c) {
        sh_.advance(c * kStripeData, buf_.span());
        if (!vol_->write(c * kStripeData, buf_.span()))
            throw std::runtime_error("prefill write refused");
    }
}

double runner::setup() {
    std::vector<double> t;
    for (int i = 0; i < kSetupReps; ++i) {
        vol_.reset();
        const std::uint64_t t0 = now_ns();
        make_volume();
        prefill();
        t.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    return median(t);
}

void runner::run_op(const op& o, window& w) {
    const std::span<std::byte> b = buf_.span().first(o.len);
    bool ok;
    std::uint64_t t0, t1;
    if (o.write) {
        sh_.advance(o.addr, b);
        t0 = now_ns();
        ok = vol_->write(o.addr, b);
        t1 = now_ns();
    } else {
        t0 = now_ns();
        ok = vol_->read(o.addr, b);
        t1 = now_ns();
        if (ok && sh_.wrong_blocks(o.addr, b) != 0) ok = false;
    }
    const auto ns = static_cast<std::uint32_t>(std::min<std::uint64_t>(t1 - t0, UINT32_MAX));
    if (o.write) {
        w.write_ns.push_back(ns);
        w.cur.wb += o.len;
        w.cur.wt += t1 - t0;
    } else {
        w.read_ns.push_back(ns);
        w.cur.rb += o.len;
        w.cur.rt += t1 - t0;
    }
    if (w.traced) w.spans.push_back({t0, t1});
    ++w.cur.ops;
    ++w.ops;
    if (!ok) ++w.failed;
}

void runner::rebuild_pair(const std::vector<std::uint32_t>& pair, window* w) {
    for (std::uint32_t s = 0; s < vol_->shard_count(); ++s) {
        auto& a = vol_->shard(s);
        const std::uint64_t t0 = now_ns();
        for (std::uint32_t d : pair) a.replace_disk(d);
        const auto r = liberation::raid::rebuild_disks(a, pair);
        const std::uint64_t t1 = now_ns();
        check(r.success);
        if (w) {
            w->cur.other += t1 - t0;
            w->rebuild_ns += t1 - t0;
            w->rebuild_bytes += r.bytes_written;
            w->rebuild_stripes += r.stripes_rebuilt;
        }
    }
}

void runner::degraded_cycle(window& w, bool timed, prefix_counts* prefix) {
    const std::vector<std::uint32_t> pair = pair_for_cycle(cycle_++);
    const std::uint64_t t0 = now_ns();
    for (std::uint32_t s = 0; s < vol_->shard_count(); ++s)
        for (std::uint32_t d : pair) vol_->shard(s).fail_disk(d);
    w.cur.other += now_ns() - t0;
    if (prefix) prefix->begin = snapshot(*vol_);
    for (std::size_t i = 0; i < kServeOpsPerCycle; ++i) run_op(mix_.next(), w);
    if (prefix) prefix->served = snapshot(*vol_);
    const std::uint64_t rb0 = w.rebuild_bytes, rn0 = w.rebuild_ns;
    rebuild_pair(pair, &w);
    if (prefix) prefix->end = snapshot(*vol_);
    if (!timed) return;
    w.rebuild_rate.push_back(static_cast<double>(w.rebuild_bytes - rb0) /
                             static_cast<double>(w.rebuild_ns - rn0));
    w.close_slice();
}

void runner::run_window(window& w, double seconds, prefix_counts* prefix,
                        window* traced) {
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    // Every window gets at least two iterations (two slices' worth of
    // rates); with `traced`, iterations alternate between the windows.
    const std::size_t min_iters = traced ? 4 : 2;
    for (std::size_t it = 0; it < min_iters || now_ns() < deadline; ++it) {
        window& cur = traced && it % 2 ? *traced : w;
        switch (a_.wl) {
        case workload::seq_stream:
            // A write pass then a read pass; the count prefix is the first.
            if (prefix && it == 0) prefix->begin = snapshot(*vol_);
            for (std::size_t i = 0; i < 2 * kChunks; ++i) {
                run_op(seq_.next(), cur);
                if ((i + 1) % kSeqSlice == 0) cur.close_slice();
            }
            if (prefix && it == 0) prefix->served = prefix->end = snapshot(*vol_);
            break;
        case workload::rand_4k_mixed:
        case workload::persist_rand_4k:
            if (prefix && it == 0) prefix->begin = snapshot(*vol_);
            for (std::size_t i = 0; i < kMixSlice; ++i) run_op(mix_.next(), cur);
            cur.close_slice();
            if (prefix && (it + 1) * kMixSlice == kMixPrefix)
                prefix->served = prefix->end = snapshot(*vol_);
            break;
        case workload::degraded_rebuild:
            degraded_cycle(cur, true, it == 0 ? prefix : nullptr);
            break;
        }
    }
}

void runner::flush_store() {
    for (const auto& e : std::filesystem::recursive_directory_iterator(a_.store_dir)) {
        if (!e.is_regular_file()) continue;
        const int fd = ::open(e.path().c_str(), O_RDONLY | O_CLOEXEC);
        const bool ok = fd >= 0 && ::fsync(fd) == 0;
        if (fd >= 0) ::close(fd);
        if (!ok) throw std::runtime_error("cannot flush " + e.path().string());
    }
}

double runner::remount() {
    if (!vol_->unmount()) throw std::runtime_error("unmount failed");
    vol_.reset();
    vp::volume_mount_options opts;
    opts.store.dir = a_.store_dir;
    const std::uint64_t t0 = now_ns();
    auto m = vp::mount_volume(opts);
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    if (!m.report.ok || !m.vol)
        throw std::runtime_error("mount_volume failed: " + m.report.error);
    vol_ = std::move(m.vol);
    return s;
}

void runner::verify_all() {
    for (std::size_t c = 0; c < kChunks; ++c)
        check(vol_->read(c * kStripeData, buf_.span()) &&
              sh_.wrong_blocks(c * kStripeData, buf_.span()) == 0);
}

/// Host ops and bytes of the count prefix: fixed by the workload and the
/// seed, not by the clock.
struct prefix_load {
    std::uint64_t ops = 0, read_bytes = 0, written_bytes = 0;
};

/// The random op stream as the timed loop starts it: on degraded_rebuild
/// the untimed warm-up cycle has consumed its first ops.
mix_ops timed_mix_ops(workload wl, std::uint64_t seed) {
    mix_ops m(seed);
    if (wl == workload::degraded_rebuild)
        for (std::size_t i = 0; i < kServeOpsPerCycle; ++i) (void)m.next();
    return m;
}

prefix_load prefix_load_of(workload wl, std::uint64_t seed) {
    prefix_load p;
    if (wl == workload::seq_stream) return {2 * kChunks, kCapacity, kCapacity};
    mix_ops m = timed_mix_ops(wl, seed);
    p.ops = wl == workload::degraded_rebuild ? kServeOpsPerCycle : kMixPrefix;
    for (std::size_t i = 0; i < p.ops; ++i) {
        const op o = m.next();
        (o.write ? p.written_bytes : p.read_bytes) += o.len;
    }
    return p;
}

/// Count metrics over the prefix; `write_amp` is returned separately
/// because it is an end-to-end metric.
metric_list prefix_metrics(const prefix_counts& pc, const prefix_load& load,
                           double& write_amp) {
    const auto d = [](std::uint64_t x, std::uint64_t y) {
        return static_cast<double>(y - x);
    };
    const auto ratio = [](double n, double m) { return m > 0 ? n / m : 0.0; };
    const counts& b = pc.begin;
    const counts& e = pc.served;
    const auto& bs = b.vs.shard_total;
    const auto& es = e.vs.shard_total;
    const std::uint64_t ops = load.ops, host_read = load.read_bytes,
                        host_written = load.written_bytes;
    const double host_ops = static_cast<double>(ops);
    const double hb = static_cast<double>(host_read + host_written);
    const double hw = static_cast<double>(host_written);
    const double host_writes = d(b.vs.writes, e.vs.writes);
    const double host_reads = d(b.vs.reads, e.vs.reads);
    const double small = d(bs.small_writes, es.small_writes);
    const double full = d(bs.full_stripe_writes, es.full_stripe_writes);
    const double dstripe = d(bs.degraded_stripe_reads, es.degraded_stripe_reads);
    const double delem = d(bs.degraded_element_reads, es.degraded_element_reads);
    const double sbw = d(b.sb_writes, e.sb_writes);
    const double sbb = d(b.sb_bytes, e.sb_bytes);
    write_amp = ratio(d(b.dev_write_bytes, e.dev_write_bytes) + sbb, hw);
    return {
        {"volume.staged_bytes_per_host_byte", "B/B",
         ratio(d(b.vs.staged_bytes, e.vs.staged_bytes), hb)},
        {"volume.multi_shard_op_share", "ratio",
         ratio(d(b.vs.multi_shard_ops, e.vs.multi_shard_ops), host_ops)},
        {"raid.parity_elements_per_small_write", "count",
         ratio(d(bs.parity_elements_updated, es.parity_elements_updated), small)},
        {"raid.small_write_share", "ratio", ratio(small, small + full)},
        {"raid.device_ios_per_op", "count",
         ratio(d(b.dev_reads, e.dev_reads) + d(b.dev_writes, e.dev_writes), host_ops)},
        {"raid.device_read_bytes_per_host_byte", "B/B",
         ratio(d(b.dev_read_bytes, e.dev_read_bytes), hb)},
        {"raid.device_write_bytes_per_host_byte", "B/B",
         ratio(d(b.dev_write_bytes, e.dev_write_bytes), hw)},
        {"raid.degraded_stripe_reads_per_read", "count", ratio(dstripe, host_reads)},
        {"raid.degraded_element_share", "ratio", ratio(delem, delem + dstripe)},
        {"raid.retries", "count", d(b.retries, e.retries)},
        {"raid.checksum_mismatches", "count",
         d(bs.checksum_mismatches, es.checksum_mismatches)},
        // aio also covers the degraded_rebuild cycle's rebuild.
        {"aio.requests_per_batch", "count",
         ratio(d(b.aio_submitted, pc.end.aio_submitted),
               d(b.aio_batches, pc.end.aio_batches))},
        {"aio.merges_per_op", "count", ratio(d(b.aio_merges, pc.end.aio_merges), host_ops)},
        {"aio.inflight_highwater", "count", static_cast<double>(pc.end.aio_highwater)},
        {"persist.superblock_writes_per_host_write", "count", ratio(sbw, host_writes)},
        {"persist.superblock_bytes_per_host_byte", "B/B", ratio(sbb, hw)},
    };
}

replay_result runner::replay() {
    // A fixed prefix of the workload's op stream.
    std::vector<op> ops;
    std::vector<std::uint32_t> failed_pair;
    if (a_.wl == workload::seq_stream) {
        for (int pass = 0; pass < 2; ++pass)
            for (std::size_t c = 0; c < kReplaySeqOps; ++c)
                ops.push_back({pass == 0, c * kStripeData, kStripeData});
    } else {
        mix_ops m = timed_mix_ops(a_.wl, a_.seed);
        if (a_.wl == workload::degraded_rebuild) {
            // Same erasure pair as the first timed cycle.
            failed_pair = pair_for_cycle(1);
            for (std::uint32_t s = 0; s < vol_->shard_count(); ++s)
                for (std::uint32_t d : failed_pair) vol_->shard(s).fail_disk(d);
        }
        for (std::size_t i = 0; i < kReplayMixOps; ++i) ops.push_back(m.next());
    }
    replay_result rr = replay_layers(*vol_, sh_, ops);

    // Fan-out: chunk-round ops that span all four shards, replayed the
    // same way. Only seq_stream runs it (ungated; see README.md).
    replay_result fan;
    if (a_.wl == workload::seq_stream) {
        std::vector<op> rounds;
        for (int pass = 0; pass < 2; ++pass)
            for (std::size_t r = 0; r < kFanoutRounds; ++r)
                rounds.push_back({pass == 0, r * kRound, kRound});
        fan = replay_layers(*vol_, sh_, rounds);
    }
    rr.checks += fan.checks;
    rr.check_fails += fan.check_fails;
    rr.metrics.push_back({"volume.fanout_self_us_per_op", "us", fan.volume_self_us_per_op});
    rr.metrics.push_back({"volume.fanout_write_gbps", "GB/s", fan.volume_write_gbps});
    rr.metrics.push_back({"volume.fanout_read_gbps", "GB/s", fan.volume_read_gbps});

    if (failed_pair.empty()) {
        rr.metrics.push_back({"core.decode_us_per_stripe", "us", 0});
        rr.metrics.push_back({"core.decode_share_of_rebuild", "ratio", 0});
        rr.metrics.push_back({"core.decode_xors_per_stripe", "count", 0});
        return rr;
    }
    window rw;
    rebuild_pair(failed_pair, &rw);
    const double us = static_cast<double>(rw.rebuild_ns) / 1e3 /
                      static_cast<double>(rw.rebuild_stripes);
    replay_rebuild_decode(*vol_, sh_, failed_pair, us, rr);
    return rr;
}

int runner::run() {
    const double setup_s = setup();
    // Set-up leaves about 1.3 GB of the store dirty in the page cache.
    // Whether the kernel starts writing it back during the timed loop
    // would differ from run to run, so flush it first (outside setup_s;
    // the store's own flush policy is unchanged).
    if (persistent()) flush_store();
    if (a_.wl == workload::degraded_rebuild) {
        // Untimed warm-up cycle: a process's first degraded cycle is
        // markedly slower than later ones.
        window warm;
        degraded_cycle(warm, false, nullptr);
        checks_ += warm.ops;
        checks_failed_ += warm.failed;
    }

    // A traced run interleaves untraced and traced iterations, so both
    // see the same state of the volume and of the host.
    const proc_sample p0 = sample_proc();
    window w, tw;
    tw.traced = true;
    // Room for every op up front: a vector that grew mid-loop would free
    // its old mmapped block, and glibc then raises its trim threshold for
    // the rest of the process, so the program's page-fault rate would
    // depend on how far the loop had got (see README.md).
    const auto max_ops = static_cast<std::size_t>(a_.seconds * kMaxOpsPerSecond);
    for (window* x : {&w, &tw}) {
        x->read_ns.reserve(max_ops);
        x->write_ns.reserve(max_ops);
    }
    if (a_.trace) tw.spans.reserve(max_ops);
    prefix_counts prefix;
    const std::size_t pair = a_.wl == workload::seq_stream ? 5 : 0;
    run_window(w, a_.seconds, &prefix, a_.trace ? &tw : nullptr);
    const proc_sample p1 = sample_proc();
    const proc_delta pd = delta(p0, p1);

    double write_amp = 0;
    metric_list layer =
        prefix_metrics(prefix, prefix_load_of(a_.wl, a_.seed), write_amp);
    metric_list e2e = window_metrics(w, pair);
    e2e.push_back({"write_amp", "B/B", write_amp});
    e2e.push_back({"setup_s", "s", setup_s});

    const double rebuild_gbps = median(w.rebuild_rate);
    const double rebuild_us_per_stripe =
        w.rebuild_stripes ? static_cast<double>(w.rebuild_ns) / 1e3 /
                                 static_cast<double>(w.rebuild_stripes)
                           : 0;
    std::uint64_t attempted = w.ops, failed = w.failed;

    const double wops = static_cast<double>(w.ops + tw.ops);
    const double cpu = pd.sys_s + pd.user_s;
    const metric_list noise = {
        {"proc.minor_faults_per_op", "count", pd.minor_faults / wops},
        {"proc.sys_cpu_share", "ratio", cpu > 0 ? pd.sys_s / cpu : 0},
        {"proc.involuntary_switches_per_op", "count", pd.invol / wops},
        {"host.steal_share", "ratio", pd.steal_share},
    };

    metric_list out;
    if (a_.trace) {
        attempted += tw.ops;
        failed += tw.failed;
        // The client's own time between consecutive host ops (content
        // generation and checking), from the traced spans.
        std::vector<double> gaps;
        for (std::size_t i = 1; i < tw.spans.size(); ++i)
            if (tw.spans[i].t0 >= tw.spans[i - 1].t1)
                gaps.push_back(static_cast<double>(tw.spans[i].t0 - tw.spans[i - 1].t1) / 1e3);
        out.push_back({"client.gap_us_per_op", "us", median(gaps)});
        const metric_list traced = window_metrics(tw, pair);
        // Positive overhead = the traced window did worse.
        for (std::size_t i = 0; i < traced.size(); ++i) {
            const double u = e2e[i].value;
            const bool higher_better = e2e[i].unit != "us";
            const double d = u != 0 ? (traced[i].value - u) / u : 0;
            out.push_back({"trace_overhead." + e2e[i].name, "ratio",
                           higher_better ? -d : d});
        }

        const replay_result rr = replay();
        attempted += rr.checks;
        failed += rr.check_fails;
        out.insert(out.end(), rr.metrics.begin(), rr.metrics.end());
        out.insert(out.end(), layer.begin(), layer.end());
        out.push_back({"raid.rebuild_us_per_stripe", "us", rebuild_us_per_stripe});
        out.push_back({"raid.rebuild_gbps", "GB/s", rebuild_gbps});
        out.insert(out.end(), noise.begin(), noise.end());
    }

    double remount_s = 0;
    if (persistent()) {
        remount_s = remount();
        verify_all();
    }
    if (a_.trace) out.push_back({"persist.remount_s", "s", remount_s});

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    e2e.push_back({"peak_rss_mib", "MiB", static_cast<double>(ru.ru_maxrss) / 1024.0});

    attempted += checks_;
    failed += checks_failed_;
    const bool correct = failed == 0;
    if (a_.trace) {
        print_json("", correct, attempted, failed, out);
    } else {
        // Metrics that apply to one workload only, and the noise
        // attribution, ride on an info line ahead of the result.
        metric_list info = noise;
        info.push_back({"failed_op_ratio", "ratio",
                        static_cast<double>(failed) / static_cast<double>(attempted)});
        info.push_back({"rebuild_gbps", "GB/s", rebuild_gbps});
        info.push_back({"remount_s", "s", remount_s});
        print_json("info ", correct, attempted, failed, info);
        print_json("", correct, attempted, failed, e2e);
    }
    vol_.reset();
    if (persistent()) std::filesystem::remove_all(a_.store_dir);
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        const perfbench::args a = perfbench::parse_args(argc, argv);
        perfbench::runner r(a);
        return r.run();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "volbench: %s\n", e.what());
        return 2;
    }
}
