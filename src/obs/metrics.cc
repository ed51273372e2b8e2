#include "obs/metrics.h"

#ifndef BURSTHIST_NO_METRICS

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstring>
#include <string_view>

namespace bursthist {
namespace obs {
namespace {

// Process-wide fallbacks returned on a kind mismatch in release
// builds, so buggy instrumentation degrades to a dead metric instead
// of crashing the host process.
Counter& DummyCounter() {
  static Counter c;
  return c;
}
Gauge& DummyGauge() {
  static Gauge g;
  return g;
}
Histogram& DummyHistogram() {
  static Histogram h({1.0});
  return h;
}

std::vector<double> LatencyBounds() {
  return std::vector<double>(kLatencyBucketBounds,
                             kLatencyBucketBounds + kLatencyBucketCount);
}

// Power-of-two record-count buckets for "*_size_records" histograms
// (batch sizes); latency buckets would funnel every batch into the
// overflow bucket.
std::vector<double> SizeBounds() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 8192.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

// True when `name` uses the record-count buckets instead of the
// shared latency buckets.
bool IsSizeHistogramName(const char* name) {
  const std::string_view sv(name);
  const std::string_view suffix = "_size_records";
  return sv.size() >= suffix.size() &&
         sv.substr(sv.size() - suffix.size()) == suffix;
}

// %g keeps the exposition compact and stable for the values we emit
// (bucket bounds, gauge readings); 17 significant digits only where
// round-tripping matters is overkill for operator-facing text.
void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  *out += buf;
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

const char* HelpFor(const char* name) {
  for (const auto& m : StandardMetrics()) {
    if (std::strcmp(m.name, name) == 0) return m.help;
  }
  return "";
}

}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Entry& MetricsRegistry::GetOrCreate(
    const std::string& name, const std::string& help, MetricKind kind,
    const std::vector<double>* bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry e;
    e.kind = kind;
    e.help = help;
    switch (kind) {
      case MetricKind::kCounter:
        e.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        e.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        e.histogram = std::make_unique<Histogram>(*bounds);
        break;
    }
    it = metrics_.emplace(name, std::move(e)).first;
  }
  return it->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  Entry& e = GetOrCreate(name, help, MetricKind::kCounter, nullptr);
  assert(e.kind == MetricKind::kCounter && "metric re-registered as counter");
  if (e.kind != MetricKind::kCounter) return DummyCounter();
  return *e.counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  Entry& e = GetOrCreate(name, help, MetricKind::kGauge, nullptr);
  assert(e.kind == MetricKind::kGauge && "metric re-registered as gauge");
  if (e.kind != MetricKind::kGauge) return DummyGauge();
  return *e.gauge;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> bounds) {
  Entry& e = GetOrCreate(name, help, MetricKind::kHistogram, &bounds);
  assert(e.kind == MetricKind::kHistogram &&
         "metric re-registered as histogram");
  if (e.kind != MetricKind::kHistogram) return DummyHistogram();
  return *e.histogram;
}

std::vector<std::string> MetricsRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) names.push_back(name);
  return names;  // std::map iterates sorted
}

void MetricsRegistry::WritePrometheus(std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, e] : metrics_) {
    if (!e.help.empty()) {
      *out += "# HELP " + name + " " + e.help + "\n";
    }
    switch (e.kind) {
      case MetricKind::kCounter:
        *out += "# TYPE " + name + " counter\n" + name + " ";
        AppendU64(out, e.counter->Value());
        *out += "\n";
        break;
      case MetricKind::kGauge:
        *out += "# TYPE " + name + " gauge\n" + name + " ";
        AppendDouble(out, e.gauge->Value());
        *out += "\n";
        break;
      case MetricKind::kHistogram: {
        *out += "# TYPE " + name + " histogram\n";
        const Histogram& h = *e.histogram;
        uint64_t cumulative = 0;
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += h.BucketCount(i);
          *out += name + "_bucket{le=\"";
          AppendDouble(out, h.bounds()[i]);
          *out += "\"} ";
          AppendU64(out, cumulative);
          *out += "\n";
        }
        cumulative += h.BucketCount(h.bounds().size());
        *out += name + "_bucket{le=\"+Inf\"} ";
        AppendU64(out, cumulative);
        *out += "\n" + name + "_sum ";
        AppendDouble(out, h.Sum());
        *out += "\n" + name + "_count ";
        AppendU64(out, h.Count());
        *out += "\n";
        break;
      }
    }
  }
}

void MetricsRegistry::WriteJson(std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string counters, gauges, histograms;
  for (const auto& [name, e] : metrics_) {
    switch (e.kind) {
      case MetricKind::kCounter:
        if (!counters.empty()) counters += ",";
        counters += "\"" + name + "\":";
        AppendU64(&counters, e.counter->Value());
        break;
      case MetricKind::kGauge:
        if (!gauges.empty()) gauges += ",";
        gauges += "\"" + name + "\":";
        AppendDouble(&gauges, e.gauge->Value());
        break;
      case MetricKind::kHistogram: {
        if (!histograms.empty()) histograms += ",";
        const Histogram& h = *e.histogram;
        histograms += "\"" + name + "\":{\"count\":";
        AppendU64(&histograms, h.Count());
        histograms += ",\"sum\":";
        AppendDouble(&histograms, h.Sum());
        histograms += ",\"buckets\":[";
        uint64_t cumulative = 0;
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += h.BucketCount(i);
          if (i > 0) histograms += ",";
          histograms += "[";
          AppendDouble(&histograms, h.bounds()[i]);
          histograms += ",";
          AppendU64(&histograms, cumulative);
          histograms += "]";
        }
        cumulative += h.BucketCount(h.bounds().size());
        histograms += ",[\"+Inf\",";
        AppendU64(&histograms, cumulative);
        histograms += "]]}";
        break;
      }
    }
  }
  *out += "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
          "},\"histograms\":{" + histograms + "}}";
}

const std::vector<StandardMetricInfo>& StandardMetrics() {
  static const std::vector<StandardMetricInfo>* table = [] {
    auto* t = new std::vector<StandardMetricInfo>();
#define BURSTHIST_OBS_TABLE_ENTRY(Kind, Symbol, Name, Help) \
  t->push_back({Name, Help, MetricKind::k##Kind});
    BURSTHIST_METRIC_LIST(BURSTHIST_OBS_TABLE_ENTRY)
#undef BURSTHIST_OBS_TABLE_ENTRY
    return t;
  }();
  return *table;
}

void RegisterStandardMetrics(MetricsRegistry* registry) {
  MetricsRegistry& r = registry != nullptr ? *registry
                                           : MetricsRegistry::Global();
  for (const auto& m : StandardMetrics()) {
    switch (m.kind) {
      case MetricKind::kCounter:
        r.GetCounter(m.name, m.help);
        break;
      case MetricKind::kGauge:
        r.GetGauge(m.name, m.help);
        break;
      case MetricKind::kHistogram:
        r.GetHistogram(m.name, m.help,
                       IsSizeHistogramName(m.name) ? SizeBounds()
                                                   : LatencyBounds());
        break;
    }
  }
}

Counter& GetCounter(const char* name) {
  return MetricsRegistry::Global().GetCounter(name, HelpFor(name));
}

Gauge& GetGauge(const char* name) {
  return MetricsRegistry::Global().GetGauge(name, HelpFor(name));
}

Histogram& GetLatencyHistogram(const char* name) {
  return MetricsRegistry::Global().GetHistogram(name, HelpFor(name),
                                                LatencyBounds());
}

Histogram& GetSizeHistogram(const char* name) {
  return MetricsRegistry::Global().GetHistogram(name, HelpFor(name),
                                                SizeBounds());
}

TraceRing& TraceRing::Global() {
  static TraceRing* ring = new TraceRing();
  return *ring;
}

void TraceRing::Enable(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.assign(capacity_, TraceEvent{});
  next_ = 0;
  count_ = 0;
  enabled_.store(capacity != 0, std::memory_order_relaxed);
}

void TraceRing::Disable() {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_.store(false, std::memory_order_relaxed);
}

void TraceRing::Record(const char* label, uint64_t start_us,
                       double duration_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_.load(std::memory_order_relaxed) || capacity_ == 0) return;
  ring_[next_] = TraceEvent{label, start_us, duration_seconds};
  next_ = (next_ + 1) % capacity_;
  if (count_ < capacity_) ++count_;
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(count_);
  // Oldest event first: the cursor points at the slot that would be
  // overwritten next, which is the oldest once the ring has wrapped.
  const size_t start = count_ < capacity_ ? 0 : next_;
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

std::string FormatStatsLine() {
  MetricsRegistry& r = MetricsRegistry::Global();
  char buf[256];
  const double resident = r.GetGauge(kEngineResidentBytes, "").Value();
  std::snprintf(
      buf, sizeof(buf),
      "[bursthist] appends=%" PRIu64 " rejects=%" PRIu64
      " reorder_depth=%.0f resident_kb=%.1f bound=%.3f level=%.0f",
      r.GetCounter(kEngineAppendsTotal, "").Value(),
      r.GetCounter(kEngineAppendRejectsTotal, "").Value(),
      r.GetGauge(kEngineReorderDepth, "").Value(), resident / 1024.0,
      r.GetGauge(kEffectivePointBound, "").Value(),
      r.GetGauge(kGovernorLevel, "").Value());
  return std::string(buf);
}

PeriodicStats::PeriodicStats(double interval_seconds, std::FILE* out)
    : out_(out),
      interval_seconds_(interval_seconds),
      last_print_(std::chrono::steady_clock::now()) {}

void PeriodicStats::Tick(uint64_t records) {
  records_ += records;
  // Amortize the clock read: only look at the time every 4096 ticks.
  if (++ticks_since_check_ < 4096) return;
  ticks_since_check_ = 0;
  MaybePrint(false);
}

void PeriodicStats::Final() { MaybePrint(true); }

void PeriodicStats::MaybePrint(bool force) {
  const auto now = std::chrono::steady_clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - last_print_).count();
  if (!force && elapsed < interval_seconds_) return;
  const double rate =
      elapsed > 0.0 ? static_cast<double>(records_ - last_records_) / elapsed
                    : 0.0;
  std::fprintf(out_, "%s rate=%.0f/s\n", FormatStatsLine().c_str(), rate);
  last_print_ = now;
  last_records_ = records_;
}

}  // namespace obs
}  // namespace bursthist

#else  // BURSTHIST_NO_METRICS

// Keep the translation unit non-empty so the archive has a member in
// compiled-out builds.
namespace bursthist {
namespace obs {
const int kMetricsCompiledOut = 1;
}  // namespace obs
}  // namespace bursthist

#endif  // BURSTHIST_NO_METRICS
