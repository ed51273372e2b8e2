#include "core/pbe2.h"

#include <cassert>

namespace bursthist {

namespace {
constexpr uint32_t kMagic = 0x50424532;  // "PBE2"
constexpr uint32_t kVersion = 3;
}  // namespace

Pbe2::Pbe2(const Options& options)
    : options_(options),
      builder_(options.gamma, options.max_polygon_vertices,
               options.target_bytes) {
  assert(options_.gamma >= 0.0);
}

void Pbe2::Append(Timestamp t, Count count) {
  assert(!finalized_ && "Append after Finalize");
  if (has_pending_ && pending_.time == t) {
    pending_.count += count;
    running_count_ += count;
    return;
  }
  assert(!has_pending_ || t > pending_.time);
  if (has_pending_) FlushPending();
  running_count_ += count;
  pending_ = CurvePoint{t, running_count_};
  has_pending_ = true;
}

void Pbe2::FlushPending() {
  assert(has_pending_);
  // Pre-rise augmentation (Section III-B): constrain the level right
  // before this corner so no line can overestimate the flat stretch.
  if (has_flushed_ && pending_.time > last_flushed_.time + 1) {
    builder_.AddPoint(pending_.time - 1, last_flushed_.count);
  }
  builder_.AddPoint(pending_.time, pending_.count);
  last_flushed_ = pending_;
  has_flushed_ = true;
  has_pending_ = false;
}

void Pbe2::Finalize() {
  if (finalized_) return;
  if (has_pending_) FlushPending();
  builder_.Finish();
  finalized_ = true;
}

double Pbe2::EstimateCumulative(Timestamp t) const {
  assert(finalized_ && "query before Finalize");
  return builder_.model().Evaluate(t);
}

double Pbe2::EstimateBurstiness(Timestamp t, Timestamp tau) const {
  assert(finalized_ && "query before Finalize");
  return builder_.model().EstimateBurstiness(t, tau);
}

std::vector<Timestamp> Pbe2::Breakpoints() const {
  assert(finalized_ && "query before Finalize");
  return builder_.model().Breakpoints();
}

size_t Pbe2::SizeBytes() const { return builder_.model().SizeBytes(); }

size_t Pbe2::MemoryUsage() const {
  return sizeof(*this) - sizeof(builder_) + builder_.MemoryUsage();
}

void Pbe2::WidenGamma(double factor) {
  assert(factor >= 1.0);
  if (finalized_) return;
  const double current = builder_.gamma();
  double target = current == 0.0 ? factor : current * factor;
  // Saturate at the curve's own mass: F spans [0, running_count_], so
  // a band that wide already admits a single-segment model — widening
  // past it frees no memory, it only inflates the reported bound.
  const double cap = static_cast<double>(running_count_) + 1.0;
  if (target > cap) target = current > cap ? current : cap;
  if (target <= current) return;
  builder_.WidenBand(target);
}

void Pbe2::Serialize(BinaryWriter* w) const {
  if (!finalized_) {
    // Close the open window in a copy (one extra polygon restart; each
    // segment keeps its own gamma band) and mark the blob live so the
    // restored estimator keeps accepting appends.
    Pbe2 copy = *this;
    copy.Finalize();
    copy.SerializeFrozen(w, /*as_finalized=*/false);
    return;
  }
  SerializeFrozen(w, /*as_finalized=*/true);
}

void Pbe2::SerializeFrozen(BinaryWriter* w, bool as_finalized) const {
  assert(finalized_ && "SerializeFrozen requires a finalized estimator");
  w->Put(kMagic);
  w->Put(kVersion);
  const size_t frame = CrcFrame::Begin(w);
  w->Put<double>(options_.gamma);
  w->Put<uint64_t>(options_.max_polygon_vertices);
  w->Put<uint64_t>(options_.target_bytes);
  w->Put<double>(builder_.max_gamma());
  w->Put<uint64_t>(running_count_);
  w->Put<uint8_t>(as_finalized ? 1 : 0);
  builder_.model().Serialize(w);
  CrcFrame::End(w, frame);
}

Status Pbe2::Deserialize(BinaryReader* r) {
  uint32_t magic = 0, version = 0;
  BURSTHIST_RETURN_IF_ERROR(r->Get(&magic));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&version));
  if (magic != kMagic) return Status::Corruption("bad PBE-2 magic");
  if (version != kVersion) return Status::Corruption("bad PBE-2 version");
  size_t payload_end = 0;
  BURSTHIST_RETURN_IF_ERROR(CrcFrame::Enter(r, &payload_end));
  uint64_t max_vertices = 0, target_bytes = 0, running = 0;
  double max_gamma = 0.0;
  uint8_t finalized = 0;
  BURSTHIST_RETURN_IF_ERROR(r->Get(&options_.gamma));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&max_vertices));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&target_bytes));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&max_gamma));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&running));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&finalized));
  options_.max_polygon_vertices = static_cast<size_t>(max_vertices);
  options_.target_bytes = static_cast<size_t>(target_bytes);
  running_count_ = running;
  LinearModel model;
  BURSTHIST_RETURN_IF_ERROR(model.Deserialize(r));
  BURSTHIST_RETURN_IF_ERROR(CrcFrame::Leave(r, payload_end));
  // Rebuild a fresh builder holding the deserialized model; the window
  // restarts at the next append (live blobs) or never (finalized).
  // Restore the escalated band so MaxGamma() keeps reporting the true
  // guarantee.
  builder_ = OnlinePlaBuilder(std::max(options_.gamma, max_gamma),
                              options_.max_polygon_vertices,
                              options_.target_bytes);
  builder_.RestoreModel(std::move(model));
  has_pending_ = false;
  // Rebuild the pre-rise augmentation level from the stored model so a
  // live estimator keeps the no-overestimate property when it resumes.
  const LinearModel& m = builder_.model();
  has_flushed_ = finalized == 0 && !m.segments().empty();
  if (has_flushed_) {
    last_flushed_ = CurvePoint{m.segments().back().last, running_count_};
  }
  finalized_ = finalized != 0;
  return Status::OK();
}

}  // namespace bursthist
