// Fixed-memory latency histogram for the client side of the runtime
// workloads. A window's samples are kept per client and per 1 s slice; with
// vectors the benchmark's own memory grew with throughput and moved
// peak_rss_mb from run to run, so samples land in log-linear buckets instead.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace perfbench {

/// 128 buckets per power of two up to 2^36 ns (68 s, larger samples land in
/// the top bucket): a quantile falls within 0.8% of the exact sample value,
/// interpolated by rank inside its bucket.
class LatencyHist {
 public:
  void add(std::uint64_t ns) {
    ++counts_[index(ns)];
    ++count_;
  }

  void merge(const LatencyHist& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// Nearest-rank q-quantile (q in [0,1]) in ns; 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    rank = rank == 0 ? 0 : std::min(rank, count_) - 1;
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (below + counts_[i] > rank) {
        const double into = (static_cast<double>(rank - below) + 0.5) /
                            static_cast<double>(counts_[i]);
        return static_cast<double>(lower(i)) +
               into * static_cast<double>(width(i));
      }
      below += counts_[i];
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

 private:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static constexpr unsigned kMaxExp = 36;
  static constexpr std::size_t kBuckets = (kMaxExp - kSubBits + 1) * kSub;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const auto e = static_cast<unsigned>(std::bit_width(v) - 1);  // >= 7
    if (e >= kMaxExp) return kBuckets - 1;
    const std::uint64_t mantissa = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>((e - kSubBits + 1) * kSub + mantissa);
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kSub) return i;
    const std::uint64_t e = i / kSub + kSubBits - 1;
    return (kSub + i % kSub) << (e - kSubBits);
  }
  static std::uint64_t width(std::size_t i) {
    return i < kSub ? 1 : std::uint64_t{1} << (i / kSub - 1);
  }

  std::array<std::uint32_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
