#include "core/pbe1.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace bursthist {

namespace {
constexpr uint32_t kMagic = 0x50424531;  // "PBE1"
constexpr uint32_t kVersion = 2;
}  // namespace

Pbe1::Pbe1(const Options& options) : options_(options) {
  assert(options_.buffer_points >= 2);
  assert(options_.budget_points >= 2 || options_.error_cap >= 0.0);
}

void Pbe1::Append(Timestamp t, Count count) {
  assert(!finalized_ && "Append after Finalize");
  if (!buffer_.empty() && buffer_.back().time == t) {
    buffer_.back().count += count;
    running_count_ += count;
    return;
  }
  assert(buffer_.empty() || t > buffer_.back().time);
  assert(model_.empty() || buffer_.size() > 0 ||
         t > model_.points().back().time);
  if (buffer_.size() == options_.buffer_points) {
    CompressBuffer(options_.budget_points);
  }
  running_count_ += count;
  buffer_.push_back(CurvePoint{t, running_count_});
}

void Pbe1::CompressBuffer(size_t budget) {
  if (buffer_.empty()) return;
  BURSTHIST_LATENCY_HISTOGRAM(m_lat, obs::kPbe1CompressLatencySeconds);
  obs::TraceSpan span(m_lat, "pbe1_compress");
  StaircaseFit fit;
  if (options_.error_cap >= 0.0) {
    fit = OptimalStaircaseErrorCapped(buffer_, options_.error_cap);
  } else {
    fit = OptimalStaircase(buffer_, budget);
  }
  model_.AppendPoints(fit.Materialize(buffer_));
  total_area_error_ += fit.error;
  max_buffer_area_error_ = std::max(max_buffer_area_error_, fit.error);
  buffer_.clear();
}

void Pbe1::CompressResidual() {
  if (buffer_.empty()) return;
  // Scale the budget to the residual buffer's share so the final
  // (partial) buffer keeps the same compression ratio kappa.
  size_t budget = options_.budget_points;
  if (options_.error_cap < 0.0 && buffer_.size() < options_.buffer_points) {
    budget = std::max<size_t>(2, (options_.budget_points * buffer_.size() +
                                  options_.buffer_points - 1) /
                                     options_.buffer_points);
  }
  CompressBuffer(budget);
}

void Pbe1::Finalize() {
  if (finalized_) return;
  CompressResidual();
  finalized_ = true;
}

void Pbe1::CompactEarly() {
  if (finalized_ || buffer_.size() < 2) return;
  // Hold the newest point back: Append merges same-timestamp arrivals
  // into the buffer tail, which a fully frozen buffer could not serve.
  const CurvePoint tail = buffer_.back();
  buffer_.pop_back();
  CompressResidual();
  buffer_.push_back(tail);
  buffer_.shrink_to_fit();  // the point of compacting is freeing this
}

double Pbe1::EstimateCumulative(Timestamp t) const {
  assert(finalized_ && "query before Finalize");
  return static_cast<double>(model_.Evaluate(t));
}

double Pbe1::EstimateBurstiness(Timestamp t, Timestamp tau) const {
  assert(finalized_ && "query before Finalize");
  return model_.EstimateBurstiness(t, tau);
}

std::vector<Timestamp> Pbe1::Breakpoints() const {
  assert(finalized_ && "query before Finalize");
  return model_.Breakpoints();
}

size_t Pbe1::SizeBytes() const {
  return model_.SizeBytes() + buffer_.size() * sizeof(CurvePoint);
}

size_t Pbe1::MemoryUsage() const {
  return sizeof(*this) +
         model_.points().capacity() * sizeof(CurvePoint) +
         buffer_.capacity() * sizeof(CurvePoint);
}

void Pbe1::Serialize(BinaryWriter* w) const {
  w->Put(kMagic);
  w->Put(kVersion);
  const size_t frame = CrcFrame::Begin(w);
  w->Put<uint64_t>(options_.buffer_points);
  w->Put<uint64_t>(options_.budget_points);
  w->Put<double>(options_.error_cap);
  w->Put<uint64_t>(running_count_);
  w->Put<double>(total_area_error_);
  w->Put<double>(max_buffer_area_error_);
  w->Put<uint8_t>(finalized_ ? 1 : 0);
  model_.Serialize(w);
  w->PutVector(buffer_);
  CrcFrame::End(w, frame);
}

Status Pbe1::Deserialize(BinaryReader* r) {
  uint32_t magic = 0, version = 0;
  BURSTHIST_RETURN_IF_ERROR(r->Get(&magic));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&version));
  if (magic != kMagic) return Status::Corruption("bad PBE-1 magic");
  if (version != kVersion) return Status::Corruption("bad PBE-1 version");
  size_t payload_end = 0;
  BURSTHIST_RETURN_IF_ERROR(CrcFrame::Enter(r, &payload_end));
  uint64_t buffer_points = 0, budget_points = 0, running = 0;
  uint8_t finalized = 0;
  BURSTHIST_RETURN_IF_ERROR(r->Get(&buffer_points));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&budget_points));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&options_.error_cap));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&running));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&total_area_error_));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&max_buffer_area_error_));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&finalized));
  BURSTHIST_RETURN_IF_ERROR(model_.Deserialize(r));
  BURSTHIST_RETURN_IF_ERROR(r->GetVector(&buffer_));
  BURSTHIST_RETURN_IF_ERROR(CrcFrame::Leave(r, payload_end));
  options_.buffer_points = static_cast<size_t>(buffer_points);
  options_.budget_points = static_cast<size_t>(budget_points);
  running_count_ = running;
  finalized_ = finalized != 0;
  return Status::OK();
}

}  // namespace bursthist
