// Dyadic decomposition index for BURSTY EVENT queries
// (Section V, Figure 6, Algorithm 3 of the paper).
//
// The event-id space [0, K) is padded to a power of two and organized
// as a binary tree of dyadic ranges; one CM-PBE per level summarizes
// the stream with ids collapsed to their level-l prefix (e >> l).
// Because F of a parent range is the sum of its children's F curves,
// b_p = b_l + b_r, so
//     b_p^2 - 2 b_l b_r = b_l^2 + b_r^2,
// and if that is below theta^2 neither child can reach the threshold —
// the subtree is pruned (inequality (6)). In the common case only
// O(log K) point queries run per query; the worst case degrades to
// O(K) only when nearly everything is bursty.
//
// Caveat reproduced from the paper: the pruning bound is exact on true
// burstiness values of the *children*; deeper descendants of a pruned
// node with opposite-signed burstiness could in principle cancel. The
// recursion re-checks at every node, and the effect is measured by the
// recall metric in the evaluation (Section VI-D).

#ifndef BURSTHIST_CORE_DYADIC_INDEX_H_
#define BURSTHIST_CORE_DYADIC_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "core/cm_pbe.h"
#include "stream/types.h"
#include "util/serialize.h"
#include "util/status.h"

namespace bursthist {

/// How a subtree is tested before descending (both reduce to
/// b_l^2 + b_r^2 >= theta^2 on exact values; they differ under
/// estimation noise).
enum class DyadicPruneRule : uint8_t {
  /// Algorithm 3 as printed: descend iff
  /// b_p^2 - 2 b_l b_r >= theta^2, with b_p from the parent level's
  /// CM-PBE. Inherits the parent level's collision noise.
  kPaper = 0,
  /// Algebraically identical test computed from the children only:
  /// descend iff b_l^2 + b_r^2 >= theta^2. Empirically recovers most
  /// of the recall the paper rule loses to parent-level noise (see
  /// bench/ablation_prune_rule).
  kChildren = 1,
};

/// Cells a DyadicBurstIndex of this shape allocates at construction
/// (mirroring the constructor's per-level width capping), saturating
/// at UINT64_MAX. Deserializers that read a shape from untrusted
/// bytes check this against the payload size *before* constructing,
/// since every cell serializes to at least 8 bytes — a hostile header
/// cannot force an allocation larger than its own file.
inline uint64_t DyadicIndexCellCount(uint64_t universe_size, uint64_t depth,
                                     uint64_t width) {
  if (universe_size == 0 || depth == 0 || width == 0) return 0;
  size_t levels = 1;
  while ((uint64_t{1} << (levels - 1)) < universe_size) ++levels;
  uint64_t total = 0;
  for (size_t l = 0; l < levels; ++l) {
    const uint64_t ids = ((universe_size - 1) >> l) + 1;
    const uint64_t d = ids <= width ? 1 : depth;
    const uint64_t w = ids <= width ? ids : width;
    if (w != 0 && (d > UINT64_MAX / w || total > UINT64_MAX - d * w)) {
      return UINT64_MAX;
    }
    total += d * w;
  }
  return total;
}

/// Binary-tree-of-CM-PBEs index answering BURSTY EVENT queries.
template <typename PbeT>
class DyadicBurstIndex {
 public:
  using PbeOptions = typename PbeT::Options;

  /// @param universe_size  K: event ids are in [0, K).
  /// @param options        grid sizing shared by every level; level l
  ///        caps its width at the number of distinct level-l ids, so
  ///        upper levels cost little.
  DyadicBurstIndex(EventId universe_size, const CmPbeOptions& options,
                   const PbeOptions& pbe_options)
      : universe_size_(universe_size) {
    assert(universe_size >= 1);
    levels_ = 1;
    // 64-bit shift: EventId{1} << 32 would be UB for universe sizes
    // above 2^31 (the top level's id count must still halve to 1).
    while ((uint64_t{1} << (levels_ - 1)) < universe_size) ++levels_;
    // levels_ = L + 1 tree levels; level l has ceil(K / 2^l) ids.
    grids_.reserve(levels_);
    for (size_t l = 0; l < levels_; ++l) {
      CmPbeOptions lo = options;
      const uint64_t ids_at_level =
          (static_cast<uint64_t>(universe_size) + (1ULL << l) - 1) >> l;
      if (ids_at_level <= lo.width) {
        // Few ids: a direct-mapped single row is exact and cheaper
        // than a hashed grid (hashing a handful of ids into a handful
        // of cells collides catastrophically and breaks the
        // b_p = b_l + b_r identity the pruning bound relies on).
        lo.width = ids_at_level;
        lo.depth = 1;
        lo.identity_hash = true;
      }
      lo.seed = options.seed + 0x9e3779b9ULL * (l + 1);
      grids_.emplace_back(lo, pbe_options);
    }
  }

  /// Routes an occurrence through every level.
  void Append(EventId e, Timestamp t, Count count = 1) {
    assert(e < universe_size_);
    for (size_t l = 0; l < levels_; ++l) {
      grids_[l].Append(e >> l, t, count);
    }
  }

  /// Batch Append over parallel arrays (`n` records in stream order;
  /// `counts == nullptr` means all-ones). Byte-identical to per-record
  /// Append: levels own disjoint grids, so level-major iteration
  /// replays each grid's updates in record order.
  ///
  /// Going up the tree, each level right-shifts the ids once more, so
  /// entries adjacent in stream order collapse: two batch entries
  /// equal in (id >> l, t) route to the same cell of every level-l row
  /// with the same timestamp, and the cell's equal-time back-merge
  /// makes one Append of the summed count byte-identical to the pair.
  /// The cascade COMPACTS the working arrays level by level (equality
  /// at level l-1 implies equality at level l), so the per-level work
  /// shrinks geometrically once subtrees saturate — the top level does
  /// one append per distinct timestamp in the batch, not one per
  /// record. `id/time/count_scratch` hold the compacted arrays,
  /// `slot_scratch` the per-row hashed slots.
  void AppendBatch(const EventId* ids, const Timestamp* times,
                   const Count* counts, size_t n,
                   std::vector<EventId>* id_scratch,
                   std::vector<uint32_t>* slot_scratch,
                   std::vector<Timestamp>* time_scratch,
                   std::vector<Count>* count_scratch) {
    if (n == 0) return;
#ifndef NDEBUG
    for (size_t i = 0; i < n; ++i) assert(ids[i] < universe_size_);
#endif
    grids_[0].AppendBatch(ids, times, counts, n, slot_scratch);
    if (levels_ == 1) return;
    std::vector<EventId>& sid = *id_scratch;
    std::vector<Timestamp>& st = *time_scratch;
    std::vector<Count>& sc = *count_scratch;
    if (sid.size() < n) {
      sid.resize(n);
      st.resize(n);
      sc.resize(n);
    }
    // First cascade step reads the caller's arrays; later steps
    // compact in place (the write index never passes the read index).
    size_t m = 0;
    for (size_t i = 0; i < n; ++i) {
      const EventId id = ids[i] >> 1;
      if (m > 0 && sid[m - 1] == id && st[m - 1] == times[i]) {
        sc[m - 1] += counts ? counts[i] : Count{1};
      } else {
        sid[m] = id;
        st[m] = times[i];
        sc[m] = counts ? counts[i] : Count{1};
        ++m;
      }
    }
    IngestLevelSpan(1, sid.data(), st.data(), sc.data(), m, slot_scratch);
    for (size_t l = 2; l < levels_; ++l) {
      size_t k = 0;
      for (size_t i = 0; i < m; ++i) {
        const EventId id = sid[i] >> 1;
        if (k > 0 && sid[k - 1] == id && st[k - 1] == st[i]) {
          sc[k - 1] += sc[i];
        } else {
          sid[k] = id;
          st[k] = st[i];
          sc[k] = sc[i];
          ++k;
        }
      }
      m = k;
      IngestLevelSpan(l, sid.data(), st.data(), sc.data(), m, slot_scratch);
    }
  }

  void Finalize() {
    for (auto& g : grids_) g.Finalize();
  }

  /// Leaf-level POINT query for event e.
  double EstimateBurstiness(EventId e, Timestamp t, Timestamp tau) const {
    return grids_[0].EstimateBurstiness(e, t, tau);
  }

  /// BURSTY EVENT query (Algorithm 3): all ids whose estimated
  /// burstiness at t reaches theta, ascending. Precondition: theta > 0.
  std::vector<EventId> BurstyEvents(Timestamp t, double theta,
                                    Timestamp tau) const {
    assert(theta > 0.0);
    std::vector<EventId> out;
    point_queries_.store(0, std::memory_order_relaxed);
    Recurse(levels_ - 1, 0, t, theta, tau, &out);
    return out;
  }

  /// TOP-K variant of the BURSTY EVENT query: the k events with the
  /// largest estimated burstiness at t, descending, ties in ascending
  /// id order (the order ClusterSnapshot::TopK merges shards in, so a
  /// 1-shard cluster answers as this index does). Best-first search
  /// over the tree guided by the children-magnitude score
  /// b_l^2 + b_r^2; because sibling burstiness can cancel inside a
  /// range sum, the score is a heuristic rather than a strict upper
  /// bound — the search keeps expanding until the best unexplored
  /// node's score falls below the current k-th leaf's squared value,
  /// which is exact whenever subtree burstiness does not cancel.
  std::vector<std::pair<EventId, double>> TopKBurstyEvents(
      Timestamp t, size_t k, Timestamp tau) const {
    struct Node {
      double score;  // priority
      size_t lv;
      EventId node;
      bool operator<(const Node& o) const { return score < o.score; }
    };
    std::priority_queue<Node> frontier;
    point_queries_.store(0, std::memory_order_relaxed);
    frontier.push(Node{std::numeric_limits<double>::infinity(),
                       levels_ - 1, 0});

    std::vector<std::pair<EventId, double>> leaves;
    // Stop only once the k-th leaf's burstiness is non-negative AND its
    // square dominates the best unexplored score. Squaring a NEGATIVE
    // k-th value would flip its order — a frontier node with score
    // below kth^2 can still hide a leaf between kth and zero, so with a
    // negative cutoff the search must keep expanding.
    auto can_stop = [&](double score) {
      if (leaves.size() < k) return false;
      const double kth = leaves[k - 1].second;
      return kth >= 0.0 && score <= kth * kth;
    };
    while (!frontier.empty()) {
      const Node cur = frontier.top();
      frontier.pop();
      if (can_stop(cur.score)) break;
      const EventId lo = cur.node << cur.lv;
      if (lo >= universe_size_) continue;
      if (cur.lv == 0) {
        point_queries_.fetch_add(1, std::memory_order_relaxed);
        const double b = grids_[0].EstimateBurstiness(lo, t, tau);
        leaves.emplace_back(lo, b);
        std::sort(leaves.begin(), leaves.end(),
                  [](const auto& a, const auto& b2) {
                    if (a.second != b2.second) return a.second > b2.second;
                    return a.first < b2.first;
                  });
        continue;
      }
      for (EventId child : {cur.node * 2, cur.node * 2 + 1}) {
        if ((child << (cur.lv - 1)) >= universe_size_) continue;
        point_queries_.fetch_add(1, std::memory_order_relaxed);
        const double bc =
            grids_[cur.lv - 1].EstimateBurstiness(child, t, tau);
        frontier.push(Node{bc * bc, cur.lv - 1, child});
      }
    }
    if (leaves.size() > k) leaves.resize(k);
    return leaves;
  }

  /// Point queries issued by the last BurstyEvents call (the paper's
  /// O(log K) vs O(K) cost measure). With several threads querying one
  /// finalized index (snapshot readers), concurrent calls interleave
  /// their accounting — the counter stays well-defined (relaxed
  /// atomics, no torn reads) but then reflects the mixture, so treat
  /// it as a per-thread cost measure only under single-threaded use.
  size_t LastQueryPointQueries() const {
    return point_queries_.load(std::memory_order_relaxed);
  }

  /// Selects the subtree test (default: the paper's Algorithm 3).
  void set_prune_rule(DyadicPruneRule rule) { prune_rule_ = rule; }
  DyadicPruneRule prune_rule() const { return prune_rule_; }

  EventId universe_size() const { return universe_size_; }
  size_t levels() const { return levels_; }
  const CmPbe<PbeT>& level(size_t l) const { return grids_[l]; }

  size_t SizeBytes() const {
    size_t bytes = 0;
    for (const auto& g : grids_) bytes += g.SizeBytes();
    return bytes;
  }

  /// Resident bytes across every level (see CmPbe::MemoryUsage).
  size_t MemoryUsage() const {
    size_t bytes = sizeof(*this);
    for (const auto& g : grids_) bytes += g.MemoryUsage();
    return bytes;
  }

  /// Applies the degradation ladder to every level's grid (see
  /// CmPbe::Degrade).
  void Degrade(double gamma_factor) {
    for (auto& g : grids_) g.Degrade(gamma_factor);
  }

  /// Largest per-cell point-error bound in force at the leaf level —
  /// the level POINT queries read, hence the "Delta" of the engine's
  /// effective Lemma 5 bound.
  double MaxLeafCellError() const { return grids_[0].MaxCellPointError(); }

  void Serialize(BinaryWriter* w) const {
    w->Put<uint32_t>(0x44594144);  // "DYAD"
    w->Put<uint32_t>(2);
    const size_t frame = CrcFrame::Begin(w);
    w->Put<uint32_t>(universe_size_);
    w->Put<uint64_t>(levels_);
    w->Put<uint8_t>(static_cast<uint8_t>(prune_rule_));
    for (const auto& g : grids_) g.Serialize(w);
    CrcFrame::End(w, frame);
  }

  /// Restores into an index constructed with the same universe size
  /// and per-level grid shape.
  Status Deserialize(BinaryReader* r) {
    uint32_t magic = 0, version = 0, universe = 0;
    uint64_t levels = 0;
    uint8_t rule = 0;
    BURSTHIST_RETURN_IF_ERROR(r->Get(&magic));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&version));
    if (magic != 0x44594144) return Status::Corruption("bad dyadic magic");
    if (version != 2) return Status::Corruption("bad dyadic version");
    size_t payload_end = 0;
    BURSTHIST_RETURN_IF_ERROR(CrcFrame::Enter(r, &payload_end));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&universe));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&levels));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&rule));
    if (universe != universe_size_ || levels != levels_) {
      return Status::InvalidArgument(
          "dyadic payload shape does not match this index");
    }
    if (rule > 1) return Status::Corruption("bad dyadic prune rule");
    prune_rule_ = static_cast<DyadicPruneRule>(rule);
    for (auto& g : grids_) {
      BURSTHIST_RETURN_IF_ERROR(g.Deserialize(r));
      // Every level ingests every record, so the levels finalize
      // together; mixed lifecycles only arise from a hostile blob.
      if (g.finalized() != grids_.front().finalized()) {
        return Status::Corruption("dyadic levels disagree on lifecycle");
      }
    }
    BURSTHIST_RETURN_IF_ERROR(CrcFrame::Leave(r, payload_end));
    return Status::OK();
  }

 private:
  // Feeds one compacted level span into its grid. Near the top of the
  // tree a span collapses to a handful of entries, where the batch
  // kernel's per-call setup (slot buffer sizing, row-major hash
  // dispatch) costs more than it saves — route tiny spans through the
  // scalar per-record Append, which is byte-identical by definition.
  void IngestLevelSpan(size_t level, const EventId* ids,
                       const Timestamp* times, const Count* counts,
                       size_t m, std::vector<uint32_t>* slot_scratch) {
    if (m <= 4) {
      for (size_t i = 0; i < m; ++i) {
        grids_[level].Append(ids[i], times[i], counts[i]);
      }
      return;
    }
    grids_[level].AppendBatch(ids, times, counts, m, slot_scratch);
  }

  // Visits the node covering leaf ids [node << lv, (node+1) << lv).
  void Recurse(size_t lv, EventId node, Timestamp t, double theta,
               Timestamp tau, std::vector<EventId>* out) const {
    const EventId lo = node << lv;
    if (lo >= universe_size_) return;  // fully padded subtree
    if (lv == 0) {
      point_queries_.fetch_add(1, std::memory_order_relaxed);
      if (grids_[0].EstimateBurstiness(lo, t, tau) >= theta) {
        out->push_back(lo);
      }
      return;
    }
    // Padded (out-of-universe) children hold no stream: their
    // burstiness is identically zero. Querying them anyway would wrap
    // around the level's cell array and read a real node's stream.
    auto child = [&](EventId c) -> double {
      if ((c << (lv - 1)) >= universe_size_) return 0.0;
      point_queries_.fetch_add(1, std::memory_order_relaxed);
      return grids_[lv - 1].EstimateBurstiness(c, t, tau);
    };
    const double bl = child(node * 2);
    const double br = child(node * 2 + 1);
    double score;
    if (prune_rule_ == DyadicPruneRule::kPaper) {
      const double bp = grids_[lv].EstimateBurstiness(node, t, tau);
      point_queries_.fetch_add(1, std::memory_order_relaxed);
      score = bp * bp - 2.0 * bl * br;
    } else {
      score = bl * bl + br * br;
    }
    if (score < theta * theta) return;  // prune (inequality (6))
    Recurse(lv - 1, node * 2, t, theta, tau, out);
    Recurse(lv - 1, node * 2 + 1, t, theta, tau, out);
  }

  // Query-cost accounting that stays data-race-free when concurrent
  // snapshot readers share one finalized index. Copyable (unlike a
  // bare std::atomic) so the index keeps its value semantics; a copy
  // observes the source's current value, not its atomicity.
  class QueryCounter {
   public:
    QueryCounter() = default;
    QueryCounter(const QueryCounter& o)
        : v_(o.v_.load(std::memory_order_relaxed)) {}
    QueryCounter& operator=(const QueryCounter& o) {
      v_.store(o.v_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
      return *this;
    }
    void store(size_t v, std::memory_order order) { v_.store(v, order); }
    size_t load(std::memory_order order) const { return v_.load(order); }
    void fetch_add(size_t n, std::memory_order order) const {
      v_.fetch_add(n, order);
    }

   private:
    mutable std::atomic<size_t> v_{0};
  };

  EventId universe_size_;
  size_t levels_ = 1;
  DyadicPruneRule prune_rule_ = DyadicPruneRule::kPaper;
  std::vector<CmPbe<PbeT>> grids_;
  mutable QueryCounter point_queries_;
};

}  // namespace bursthist

#endif  // BURSTHIST_CORE_DYADIC_INDEX_H_
