// Core value types shared by every module (Table I of the paper).

#ifndef BURSTHIST_STREAM_TYPES_H_
#define BURSTHIST_STREAM_TYPES_H_

#include <cstdint>

namespace bursthist {

/// Identifier of an event in the universal event space Sigma = [0, K).
using EventId = uint32_t;

/// Discrete timestamp. The unit granularity is application-defined
/// (one second in the paper's datasets); all algorithms only assume a
/// totally ordered integer domain.
using Timestamp = int64_t;

/// Occurrence count / cumulative frequency.
using Count = uint64_t;

/// Exact burstiness values are integer differences of counts; they can
/// be negative (decelerating events).
using Burstiness = int64_t;

/// One element of the event-identifier stream S = {(a_i, t_i)}.
struct EventRecord {
  EventId id;
  Timestamp time;

  friend bool operator==(const EventRecord&, const EventRecord&) = default;
};

/// An event occurrence with an explicit multiplicity, for callers that
/// pre-aggregate repeats (EventRecord carries no count).
struct WeightedRecord {
  EventId id = 0;
  Timestamp time = 0;
  Count count = 1;
};

}  // namespace bursthist

#endif  // BURSTHIST_STREAM_TYPES_H_
