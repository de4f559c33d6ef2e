// Sample-statistics helpers for the experiment harnesses: percentiles
// and distribution summaries (handshake-latency histograms, throughput
// spreads). Shared here so every bench reports the same definitions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mapsec::analysis {

/// q-quantile (q in [0, 1]) with linear interpolation between order
/// statistics. Returns 0 for an empty sample. The input is copied and
/// sorted internally.
double percentile(std::vector<double> values, double q);

/// Five-number-ish summary of a sample.
struct SampleSummary {
  std::size_t count = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};

SampleSummary summarize(const std::vector<double>& values);

/// Fixed-layout latency histogram: `buckets` linear bins of `bucket_width`
/// starting at zero, plus one overflow bin. Two histograms with the same
/// layout merge by adding counts — exact aggregation, unlike combining
/// per-shard percentile scalars (a p99-of-p99s is not the fleet p99).
/// Each shard of the serving tier records into its own histogram on its
/// own thread; the merge step sums them at the epoch barrier and fleet
/// percentiles are read off the merged counts.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(double bucket_width_us = 250.0,
                            std::size_t buckets = 4096);

  void record(double value_us);

  std::size_t count() const { return count_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double bucket_width() const { return width_; }
  std::size_t buckets() const { return counts_.size(); }
  std::uint64_t bucket_count(std::size_t i) const { return counts_[i]; }
  std::uint64_t overflow() const { return counts_.back(); }
  /// Heap the histogram holds: fixed by its layout, never by count().
  std::size_t heap_bytes() const {
    return counts_.capacity() * sizeof(std::uint64_t);
  }

  /// q-quantile (q in [0, 1]) read off the bucket counts: the q·count-th
  /// sample located by cumulative mass, uniformly interpolated inside its
  /// bucket and clamped to the exact [min, max] the histogram tracked.
  /// Within one bucket width of the sorted-sample percentile() above.
  double percentile(double q) const;

  /// Add `other`'s counts into `dst`. Layouts (width, bucket count) must
  /// match; throws std::invalid_argument otherwise.
  friend void merge(LatencyHistogram& dst, const LatencyHistogram& other);

  /// Same layout, same bucket counts, and the same count, sum, min and
  /// max.
  friend bool operator==(const LatencyHistogram&,
                         const LatencyHistogram&) = default;

 private:
  double width_;
  std::vector<std::uint64_t> counts_;  // last bin = overflow
  std::size_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

void merge(LatencyHistogram& dst, const LatencyHistogram& other);

/// Fleet percentile over per-shard histograms: merge-then-read, without
/// mutating the inputs. All histograms must share one layout.
double merged_percentile(const std::vector<LatencyHistogram>& shards,
                         double q);

}  // namespace mapsec::analysis
