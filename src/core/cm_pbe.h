// CM-PBE: a Count-Min grid of persistent burstiness estimators
// (Section IV of the paper).
//
// A d x w grid of PBE cells; element (e, t) updates one cell per row
// chosen by a pairwise-independent hash of e. Within a cell, event ids
// are discarded: collisions merge into one single-event stream whose
// cumulative curve upper-bounds every constituent event's curve. The
// per-cell PBE never overestimates its merged curve, so the two error
// sources pull in opposite directions; the final estimate takes the
// MEDIAN over rows (Section IV), with the classic Count-Min MIN kept
// as an option for the ablation study.
//
// Guarantee (Lemma 5): Pr[|b~_e(t) - b_e(t)| <= eps*N + 4*Delta]
// >= 1 - delta, with Delta replaced by gamma for CM-PBE-2.

#ifndef BURSTHIST_CORE_CM_PBE_H_
#define BURSTHIST_CORE_CM_PBE_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/pbe1.h"
#include "core/pbe2.h"
#include "hash/hash.h"
#include "obs/metrics.h"
#include "stream/types.h"
#include "util/serialize.h"
#include "util/status.h"

namespace bursthist {

/// How CM-PBE combines the d per-row estimates of F_e(t).
enum class CmEstimator : uint8_t {
  kMedian = 0,  ///< paper default: median over rows
  kMin = 1,     ///< classic Count-Min combination (ablation)
};

/// Grid sizing/seeding for CmPbe.
struct CmPbeOptions {
  /// Rows d = O(log 1/delta).
  size_t depth = 5;
  /// Cells per row w = O(1/epsilon).
  size_t width = 55;
  /// Hash seed.
  uint64_t seed = 0xb00573dULL;
  /// Row-combination rule.
  CmEstimator estimator = CmEstimator::kMedian;
  /// When true, cells are direct-mapped (cell = id % width) instead of
  /// hashed. With width >= universe size this makes the grid exact —
  /// the right configuration for the small upper levels of the dyadic
  /// index, where random hashing into a handful of cells would collide
  /// catastrophically.
  bool identity_hash = false;

  /// Sizing from the (epsilon, delta) guarantee of Theorem 1; the
  /// paper's experiments use epsilon = 0.05, delta = 0.2.
  static CmPbeOptions FromGuarantee(double epsilon, double delta,
                                    uint64_t seed = 0xb00573dULL) {
    assert(epsilon > 0.0 && epsilon < 1.0);
    assert(delta > 0.0 && delta < 1.0);
    CmPbeOptions o;
    o.depth = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(std::log(1.0 / delta))));
    o.width = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(std::exp(1.0) / epsilon)));
    o.seed = seed;
    return o;
  }
};

/// Count-Min grid of PBEs. PbeT is Pbe1 (CM-PBE-1) or Pbe2 (CM-PBE-2);
/// any type with the same duck-typed interface also works.
template <typename PbeT>
class CmPbe {
 public:
  using PbeOptions = typename PbeT::Options;

  CmPbe(const CmPbeOptions& options, const PbeOptions& pbe_options)
      : options_(options),
        pbe_options_(pbe_options),
        hashes_(options.depth, options.width, options.seed) {
    assert(options_.depth >= 1 && options_.width >= 1);
    cells_.reserve(options_.depth * options_.width);
    for (size_t i = 0; i < options_.depth * options_.width; ++i) {
      cells_.emplace_back(pbe_options_);
    }
  }

  /// Routes `count` occurrences of event e at time t into one cell per
  /// row. Times must be globally non-decreasing (stream order).
  void Append(EventId e, Timestamp t, Count count = 1) {
    for (size_t r = 0; r < options_.depth; ++r) {
      Cell(r, e).Append(t, count);
    }
    total_count_ += count;
  }

  /// Batch Append over parallel arrays (`n` records in stream order;
  /// `counts == nullptr` means every record has count 1). State is
  /// byte-identical to calling Append once per record: rows touch
  /// disjoint cells, so iterating row-major replays each cell's
  /// updates in the same record order the record-major serial loop
  /// would. The payoff is the hashing: all n slots of a row are
  /// computed first in one tight branch-free loop over the row's
  /// precomputed (a, b) (see PairwiseHash::HashIds), keeping the
  /// vectorizable arithmetic separate from the stateful per-cell
  /// appends. `slot_scratch` is caller-owned so hot paths reuse one
  /// allocation across batches.
  void AppendBatch(const EventId* ids, const Timestamp* times,
                   const Count* counts, size_t n,
                   std::vector<uint32_t>* slot_scratch) {
    if (n == 0) return;
    std::vector<uint32_t>& slots = *slot_scratch;
    if (slots.size() < n) slots.resize(n);
    // Identity slots are row-independent; hashed slots differ per row.
    if (options_.identity_hash) {
      const uint32_t width = static_cast<uint32_t>(options_.width);
      // Direct-mapped grids (dyadic upper levels) size width to the id
      // range, so the modulo is almost always a no-op — guard the
      // divide behind a perfectly-predicted compare.
      for (size_t i = 0; i < n; ++i) {
        slots[i] = ids[i] < width ? ids[i] : ids[i] % width;
      }
    }
    for (size_t r = 0; r < options_.depth; ++r) {
      if (!options_.identity_hash) {
        hashes_.HashRowIds(r, ids, n, slots.data());
      }
      PbeT* row_cells = cells_.data() + r * options_.width;
      // Batch-only lookahead the per-record path cannot have: the next
      // entry's slot is already computed, so issue its cell-header
      // prefetch while the current append's scattered loads retire.
      if (counts) {
        for (size_t i = 0; i < n; ++i) {
          if (i + 1 < n) __builtin_prefetch(row_cells + slots[i + 1]);
          row_cells[slots[i]].Append(times[i], counts[i]);
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          if (i + 1 < n) __builtin_prefetch(row_cells + slots[i + 1]);
          row_cells[slots[i]].Append(times[i], Count{1});
        }
      }
    }
    if (counts) {
      Count total = 0;
      for (size_t i = 0; i < n; ++i) total += counts[i];
      total_count_ += total;
    } else {
      total_count_ += n;
    }
  }

  /// Finalizes every cell. Required before estimate queries.
  void Finalize() {
    for (auto& c : cells_) c.Finalize();
    finalized_ = true;
  }
  bool finalized() const { return finalized_; }

  /// F~_e(t): median (or min) of the d per-row cell estimates.
  double EstimateCumulative(EventId e, Timestamp t) const {
    assert(finalized_);
    std::vector<double> est(options_.depth);
    for (size_t r = 0; r < options_.depth; ++r) {
      est[r] = Cell(r, e).EstimateCumulative(t);
    }
    return Combine(est);
  }

  /// b~_e(t) = F~_e(t) - 2 F~_e(t-tau) + F~_e(t-2tau) (Equation 2
  /// applied to the combined estimate).
  double EstimateBurstiness(EventId e, Timestamp t, Timestamp tau) const {
    return EstimateCumulative(e, t) - 2.0 * EstimateCumulative(e, t - tau) +
           EstimateCumulative(e, t - 2 * tau);
  }

  /// f~_e(t1, t2): estimated occurrences of e in the closed range
  /// [t1, t2] (Section II-A's temporal-substream frequency), clamped
  /// below at zero. Zero when t2 < t1.
  double EstimateFrequency(EventId e, Timestamp t1, Timestamp t2) const {
    if (t2 < t1) return 0.0;
    const double f =
        EstimateCumulative(e, t2) - EstimateCumulative(e, t1 - 1);
    return f < 0.0 ? 0.0 : f;
  }

  /// Union of the breakpoints of the d cells event e maps to, sorted
  /// and deduplicated — the candidate instants for BURSTY TIME queries.
  std::vector<Timestamp> Breakpoints(EventId e) const {
    assert(finalized_);
    std::vector<Timestamp> out;
    for (size_t r = 0; r < options_.depth; ++r) {
      auto bp = Cell(r, e).Breakpoints();
      out.insert(out.end(), bp.begin(), bp.end());
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Total stream size N routed through the grid — the N of Lemma 5's
  /// eps*N + 4*Delta bound.
  Count TotalCount() const { return total_count_; }

  /// Rows d (failure probability delta = e^-d).
  size_t depth() const { return options_.depth; }
  /// Cells per row w (collision rate epsilon = e / w).
  size_t width() const { return options_.width; }
  /// The grid shape/seed configuration.
  const CmPbeOptions& options() const { return options_; }

  /// Heaviest single cell's routed occurrence mass — the worst-case
  /// collision mass a POINT answer can absorb before the median
  /// combine rejects it. Under uniform hashing this hovers near
  /// N * depth / (depth * width) = N / width; a hot-key-skewed stream
  /// pushes it toward N. An O(depth * width) scan; surfacing code
  /// publishes it as the bursthist_cmpbe_max_cell_mass gauge.
  Count MaxCellMass() const {
    Count worst = 0;
    for (const auto& c : cells_) worst = std::max(worst, c.TotalCount());
    return worst;
  }

  /// Column event e maps to in `row` — the public form of the routing
  /// function, so external tooling (the differential test harness, CLI
  /// diagnostics) can reconstruct which events share a cell and
  /// compute exact per-instance collision mass.
  size_t SlotOf(size_t row, EventId e) const { return Slot(row, e); }

  /// Read-only access to the cell at grid coordinates (row, slot).
  const PbeT& CellAt(size_t row, size_t slot) const {
    assert(row < options_.depth && slot < options_.width);
    return cells_[row * options_.width + slot];
  }

  /// Sum of cell sizes (the structure's space cost).
  size_t SizeBytes() const {
    size_t bytes = 0;
    for (const auto& c : cells_) bytes += c.SizeBytes();
    return bytes;
  }

  /// Resident bytes: every cell's MemoryUsage() (object + capacity
  /// overheads) plus the grid's own bookkeeping.
  size_t MemoryUsage() const {
    size_t bytes = sizeof(*this);
    for (const auto& c : cells_) bytes += c.MemoryUsage();
    return bytes;
  }

  /// Applies the degradation ladder to every live cell:
  /// PBE-2 cells widen their gamma band by `gamma_factor` for future
  /// windows, PBE-1 cells compact their buffers early (the factor is
  /// meaningless for a DP pass). The widened error is visible through
  /// MaxCellPointError() — reported, never silent. No-op once
  /// finalized.
  void Degrade(double gamma_factor) {
    if (finalized_) return;
    for (auto& c : cells_) c.Degrade(gamma_factor);
  }

  /// Largest per-cell point-error bound in force anywhere in the grid
  /// — the "Delta" (or gamma) of Lemma 5's eps*N + 4*Delta with every
  /// escalation and degradation folded in. Combined with the grid's
  /// (eps, delta) sizing this is the honest error bound for answers
  /// served right now.
  double MaxCellPointError() const {
    double worst = 0.0;
    for (const auto& c : cells_) {
      worst = std::max(worst, c.PointErrorBound());
    }
    return worst;
  }

  void Serialize(BinaryWriter* w) const {
    w->Put<uint32_t>(0x434d5042);  // "CMPB"
    w->Put<uint32_t>(2);
    const size_t frame = CrcFrame::Begin(w);
    w->Put<uint64_t>(options_.depth);
    w->Put<uint64_t>(options_.width);
    w->Put<uint64_t>(options_.seed);
    w->Put<uint8_t>(static_cast<uint8_t>(options_.estimator));
    w->Put<uint8_t>(options_.identity_hash ? 1 : 0);
    w->Put<uint64_t>(total_count_);
    w->Put<uint8_t>(finalized_ ? 1 : 0);
    for (const auto& c : cells_) c.Serialize(w);
    CrcFrame::End(w, frame);
  }

  Status Deserialize(BinaryReader* r) {
    uint32_t magic = 0, version = 0;
    BURSTHIST_RETURN_IF_ERROR(r->Get(&magic));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&version));
    if (magic != 0x434d5042) return Status::Corruption("bad CM-PBE magic");
    if (version != 2) return Status::Corruption("bad CM-PBE version");
    size_t payload_end = 0;
    BURSTHIST_RETURN_IF_ERROR(CrcFrame::Enter(r, &payload_end));
    uint64_t depth = 0, width = 0, seed = 0, total = 0;
    uint8_t estimator = 0, identity = 0, finalized = 0;
    BURSTHIST_RETURN_IF_ERROR(r->Get(&depth));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&width));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&seed));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&estimator));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&identity));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&total));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&finalized));
    if (estimator > 1) return Status::Corruption("bad CM-PBE estimator");
    if (depth == 0 || width == 0 || depth > (1ULL << 20) ||
        width > (1ULL << 40)) {
      return Status::Corruption("implausible CM-PBE grid shape");
    }
    // Every cell's serialized form is at least 8 bytes (magic +
    // version); a shape whose cell count cannot fit in the remaining
    // payload is corrupt. Checked before reserving so a hostile blob
    // cannot force a multi-terabyte allocation.
    if (depth * width > r->remaining() / 8 + 1) {
      return Status::Corruption("CM-PBE cell count exceeds payload");
    }
    options_.depth = static_cast<size_t>(depth);
    options_.width = static_cast<size_t>(width);
    options_.seed = seed;
    options_.estimator = static_cast<CmEstimator>(estimator);
    options_.identity_hash = identity != 0;
    total_count_ = total;
    finalized_ = finalized != 0;
    hashes_ = HashFamily(options_.depth, options_.width, options_.seed);
    cells_.clear();
    cells_.reserve(options_.depth * options_.width);
    for (size_t i = 0; i < options_.depth * options_.width; ++i) {
      cells_.emplace_back(pbe_options_);
      BURSTHIST_RETURN_IF_ERROR(cells_.back().Deserialize(r));
      // Appends fan out to one cell per row, so every cell shares the
      // grid's lifecycle; a blob disagreeing with itself here would
      // later let Append/Finalize reach an already-frozen cell.
      if (cells_.back().finalized() != finalized_) {
        return Status::Corruption("CM-PBE cell lifecycle disagrees with grid");
      }
    }
    BURSTHIST_RETURN_IF_ERROR(CrcFrame::Leave(r, payload_end));
    return Status::OK();
  }

 private:
  size_t Slot(size_t row, EventId e) const {
    return options_.identity_hash ? static_cast<size_t>(e % options_.width)
                                  : static_cast<size_t>(hashes_.Hash(row, e));
  }
  PbeT& Cell(size_t row, EventId e) {
    return cells_[row * options_.width + Slot(row, e)];
  }
  const PbeT& Cell(size_t row, EventId e) const {
    return cells_[row * options_.width + Slot(row, e)];
  }

  double Combine(std::vector<double>& est) const {
    // Live accuracy proxy: the spread of the per-row estimates being
    // combined. Rows of a hashed grid disagree exactly by their
    // collision mass, so a widening spread is an early warning that
    // answers are drifting — without an exact oracle to compare
    // against. Identity-hashed (exact) grids are skipped: their rows
    // agree by construction and would mask the leaf signal.
    if (!options_.identity_hash) {
      BURSTHIST_GAUGE(m_spread, obs::kCmpbeEstimateSpread);
      const auto [lo, hi] = std::minmax_element(est.begin(), est.end());
      m_spread.Set(*hi - *lo);
    }
    if (options_.estimator == CmEstimator::kMin) {
      return *std::min_element(est.begin(), est.end());
    }
    // Median over rows. For even depth we take the LOWER middle:
    // collisions can only push a row's estimate up (the cell's merged
    // curve dominates the queried event's), while the cell's own
    // undershoot is bounded by Delta/gamma — so rounding the median
    // down rejects collision outliers at no cost to the lower bound.
    const size_t mid = (est.size() - 1) / 2;
    std::nth_element(est.begin(), est.begin() + mid, est.end());
    return est[mid];
  }

  CmPbeOptions options_;
  PbeOptions pbe_options_;
  HashFamily hashes_;
  std::vector<PbeT> cells_;  // row-major depth x width
  Count total_count_ = 0;
  bool finalized_ = false;
};

/// The two named configurations of the paper.
using CmPbe1 = CmPbe<Pbe1>;
using CmPbe2 = CmPbe<Pbe2>;

}  // namespace bursthist

#endif  // BURSTHIST_CORE_CM_PBE_H_
