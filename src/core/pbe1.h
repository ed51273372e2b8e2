// PBE-1: persistent burstiness estimation with buffering
// (Section III-A of the paper).
//
// The estimator ingests one event's occurrences in timestamp order and
// maintains the exact staircase curve of the current buffer (up to
// `buffer_points` distinct timestamps). When the buffer fills, the
// optimal-staircase dynamic program compresses it to `budget_points`
// corner points (or to the fewest points meeting `error_cap`), which
// are appended to the persistent model; compression restarts the
// buffer. The persistent model therefore never overestimates F(t),
// and Lemma 1 bounds the burstiness estimation error by 4 * Delta
// where Delta is the DP's area error.

#ifndef BURSTHIST_CORE_PBE1_H_
#define BURSTHIST_CORE_PBE1_H_

#include <cstddef>
#include <vector>

#include "pla/optimal_staircase.h"
#include "pla/staircase_model.h"
#include "stream/types.h"
#include "util/serialize.h"
#include "util/status.h"

namespace bursthist {

/// Construction parameters for Pbe1.
struct Pbe1Options {
  /// Buffer capacity n: number of distinct-timestamp corner points
  /// accumulated before a compression pass (paper default 1500).
  size_t buffer_points = 1500;

  /// Per-buffer point budget eta (used when error_cap < 0). The ratio
  /// kappa = budget_points / buffer_points is the space reduction
  /// factor (Section III-C).
  size_t budget_points = 120;

  /// When >= 0, compress each buffer to the fewest points whose area
  /// error does not exceed this cap instead of using budget_points.
  double error_cap = -1.0;
};

/// Buffered persistent burstiness estimator for a single event stream.
///
/// Usage: Append() occurrences in non-decreasing time order, then
/// Finalize() once before issuing estimate queries (to query while
/// ingestion continues, finalize a copy).
class Pbe1 {
 public:
  using Options = Pbe1Options;

  /// True: F~ and hence b~ are piecewise-constant between breakpoints.
  static constexpr bool kPiecewiseConstant = true;

  explicit Pbe1(const Options& options = Options());

  /// Adds `count` occurrences at time t (t must be >= the last
  /// appended time). Must not be called after Finalize().
  void Append(Timestamp t, Count count = 1);

  /// Compresses the residual buffer (with a proportionally scaled
  /// budget) and freezes the structure. Idempotent.
  void Finalize();

  /// True once Finalize() ran; estimate queries require it.
  bool finalized() const { return finalized_; }

  /// Early buffer compaction under memory pressure: compresses the
  /// open buffer into the persistent model now (releasing the buffer's
  /// capacity) instead of waiting for it to fill. The last buffered
  /// point is retained so a subsequent Append at the same timestamp
  /// still merges. Each compaction is a normal DP pass over fewer than
  /// buffer_points points with a proportionally scaled budget, so the
  /// Lemma 1 bound (4 * MaxBufferAreaError()) is unchanged in form —
  /// only the number of flush boundaries grows. No-op when finalized
  /// or when the buffer holds fewer than two points.
  void CompactEarly();

  /// F~(t). Precondition: finalized().
  double EstimateCumulative(Timestamp t) const;

  /// b~(t) = F~(t) - 2 F~(t-tau) + F~(t-2tau). Precondition:
  /// finalized().
  double EstimateBurstiness(Timestamp t, Timestamp tau) const;

  /// Model breakpoints (corner times). Precondition: finalized().
  std::vector<Timestamp> Breakpoints() const;

  /// Total occurrences ingested (N).
  Count TotalCount() const { return running_count_; }

  /// Retained corner points.
  size_t PointCount() const { return model_.size() + buffer_.size(); }

  /// Sum of per-buffer DP area errors.
  double TotalAreaError() const { return total_area_error_; }

  /// Largest single-buffer DP area error. Any pointwise deviation of
  /// F~ lies within one buffer, so |b~(t) - b(t)| <= 4 * this value
  /// for every t (the pointwise form of Lemma 1's 4*Delta bound).
  double MaxBufferAreaError() const { return max_buffer_area_error_; }

  /// Largest single-buffer DP area error under its duck-typed name:
  /// the per-cell "Delta or gamma" bound the governor and the grid's
  /// effective-bound reporting read uniformly from Pbe1 and Pbe2.
  double PointErrorBound() const { return max_buffer_area_error_; }

  /// Degradation hook with the uniform cell signature (see
  /// CmPbe::Degrade): PBE-1 sheds memory by compacting its buffer
  /// early; the widening factor only applies to PBE-2's gamma band.
  void Degrade(double /*gamma_factor*/) { CompactEarly(); }

  /// Bytes of retained state (model + live buffer).
  size_t SizeBytes() const;

  /// Resident bytes including object and vector-capacity overheads —
  /// what the structure actually costs the process, as opposed to
  /// SizeBytes()'s sketch-size cost model.
  size_t MemoryUsage() const;

  /// Writes the versioned, delta+varint-coded payload (docs/FORMAT.md).
  /// Error statistics serialize too, so a reloaded estimator reports
  /// the same MaxBufferAreaError() bound.
  void Serialize(BinaryWriter* w) const;

  /// Replaces this estimator with the serialized state; returns
  /// Corruption (leaving the object unspecified but destructible) on a
  /// malformed payload.
  Status Deserialize(BinaryReader* r);

 private:
  void CompressBuffer(size_t budget);
  void CompressResidual();

  Options options_;
  StaircaseModel model_;
  std::vector<CurvePoint> buffer_;
  Count running_count_ = 0;
  double total_area_error_ = 0.0;
  double max_buffer_area_error_ = 0.0;
  bool finalized_ = false;
};

}  // namespace bursthist

#endif  // BURSTHIST_CORE_PBE1_H_
