#pragma once

#include <stdexcept>
#include <string>

namespace taser::serve {

/// Base of every typed serving error. All derive from std::runtime_error
/// so legacy catch sites keep working; callers that care about *why* a
/// future failed catch the specific type.
class ServeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Admission control turned the request away (kReject policy, full shard
/// queue or full event backlog). Delivered through the future for queries;
/// thrown at the ingest() caller for events. The request was never
/// enqueued, the event never appended — retry later or shed upstream.
class RejectedError : public ServeError {
 public:
  using ServeError::ServeError;
};

/// The request's deadline passed while it waited in a shard queue; it was
/// shed at dequeue time, before any forward work was spent on it.
class DeadlineExceededError : public ServeError {
 public:
  using ServeError::ServeError;
};

/// submit()/ingest() was called after engine shutdown began (or a blocked
/// call was woken by shutdown). Nothing was enqueued.
class EngineStoppedError : public ServeError {
 public:
  using ServeError::ServeError;
};

}  // namespace taser::serve
