#include "governor/resource_governor.h"

#include <cassert>

#include "obs/metrics.h"

namespace bursthist {

const char* DegradationLevelName(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kNormal:
      return "Normal";
    case DegradationLevel::kShedding:
      return "Shedding";
    case DegradationLevel::kSaturated:
      return "Saturated";
  }
  return "Unknown";
}

ResourceGovernor::ResourceGovernor(const ResourceBudget& budget,
                                   double widen_factor)
    : budget_(budget), widen_factor_(widen_factor) {
  assert(widen_factor_ >= 1.0);
  assert(budget_.hard_bytes == 0 || budget_.soft_bytes == 0 ||
         budget_.soft_bytes <= budget_.hard_bytes);
  BURSTHIST_GAUGE(m_soft, obs::kGovernorSoftBudgetBytes);
  BURSTHIST_GAUGE(m_hard, obs::kGovernorHardBudgetBytes);
  m_soft.Set(static_cast<double>(budget_.soft_bytes));
  m_hard.Set(static_cast<double>(budget_.hard_bytes));
}

void ResourceGovernor::RegisterComponent(std::string name, UsageFn usage,
                                         ShedFn shed) {
  components_.push_back(
      Component{std::move(name), std::move(usage), std::move(shed)});
}

size_t ResourceGovernor::TotalUsage() const {
  size_t total = 0;
  for (const Component& c : components_) total += c.usage();
  return total;
}

void ResourceGovernor::ShedRound() {
  BURSTHIST_COUNTER(m_sheds, obs::kGovernorShedRoundsTotal);
  for (const Component& c : components_) c.shed(widen_factor_);
  ++shed_rounds_;
  m_sheds.Inc();
}

DegradationLevel ResourceGovernor::Enforce() {
  BURSTHIST_COUNTER(m_audits, obs::kGovernorAuditsTotal);
  BURSTHIST_COUNTER(m_transitions, obs::kGovernorLevelTransitionsTotal);
  BURSTHIST_GAUGE(m_resident, obs::kGovernorResidentBytes);
  BURSTHIST_GAUGE(m_level, obs::kGovernorLevel);
  const DegradationLevel before = level_;
  // Publish whatever Enforce() decides, including the re-audited
  // resident bytes, just before each return.
  const auto publish = [&](DegradationLevel after) {
    m_audits.Inc();
    m_resident.Set(static_cast<double>(last_audit_bytes_));
    m_level.Set(static_cast<double>(after));
    if (after != before) m_transitions.Inc();
  };
  ++audits_;
  admitted_since_audit_ = 0;
  last_audit_bytes_ = TotalUsage();
  const bool over_soft =
      budget_.soft_bytes > 0 && last_audit_bytes_ > budget_.soft_bytes;
  const bool over_hard =
      budget_.hard_bytes > 0 && last_audit_bytes_ > budget_.hard_bytes;
  if (!over_soft && !over_hard) {
    level_ = DegradationLevel::kNormal;
    publish(level_);
    return level_;
  }
  if (!over_hard) {
    // Soft pressure: one shed round, then let ingestion continue; the
    // next audit re-evaluates.
    ShedRound();
    last_audit_bytes_ = TotalUsage();
    level_ = DegradationLevel::kShedding;
    publish(level_);
    return level_;
  }
  // Hard pressure: shed repeatedly (bounded) until under the hard
  // budget. If the rounds are spent and usage still exceeds it,
  // Admit() starts refusing records.
  for (int round = 0; round < kMaxShedRounds; ++round) {
    ShedRound();
    last_audit_bytes_ = TotalUsage();
    if (last_audit_bytes_ <= budget_.hard_bytes) break;
  }
  level_ = last_audit_bytes_ > budget_.hard_bytes
               ? DegradationLevel::kSaturated
               : DegradationLevel::kShedding;
  publish(level_);
  return level_;
}

Status ResourceGovernor::Admit() const {
  if (budget_.hard_bytes > 0 && last_audit_bytes_ > budget_.hard_bytes) {
    BURSTHIST_COUNTER(m_rejects, obs::kGovernorAdmissionRejectsTotal);
    m_rejects.Inc();
    return Status::ResourceExhausted("memory hard budget exceeded");
  }
  return Status::OK();
}

Status ResourceGovernor::AdmitBatch(size_t records) {
  if (admitted_since_audit_ + records > kAuditEveryRecords) Enforce();
  Status admit = Admit();
  if (!admit.ok()) {
    // One shot at recovery before refusing: a full audit sheds
    // accuracy for space (degradation precedes refusal).
    Enforce();
    admit = Admit();
    if (!admit.ok()) return admit;
  }
  admitted_since_audit_ += records;
  return Status::OK();
}

std::vector<ComponentUsage> ResourceGovernor::AuditComponents() const {
  std::vector<ComponentUsage> out;
  out.reserve(components_.size());
  for (const Component& c : components_) {
    out.push_back(ComponentUsage{c.name, c.usage()});
  }
  return out;
}

}  // namespace bursthist
