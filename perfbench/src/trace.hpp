#pragma once
/// \file trace.hpp
/// In-memory span recorder for the traced run. A span is a name, a start,
/// an end, its parent span and the id of the request or case it belongs
/// to. Spans are recorded only from the benchmark's own code, around its
/// calls into the library; spans inside the library come later.
///
/// The library offers no hooks below its entry points, so the children of
/// a timed call are measured by replaying the call's pieces right after
/// it (tokenize, serve, reply_json of the same line; edge, radiation-off
/// and full solve of the same stagnation point). A replayed child carries
/// its own real interval; a child that is a difference of two replays
/// (the boundary layer, the radiation slab) is marked `derived` and laid
/// out inside its parent. Self time is a span's duration minus the
/// durations of its children.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";      ///< "<layer>.<what>", a string literal
  std::int64_t start_ns = 0;  ///< from the tracer's epoch
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index into the span list, -1 = root
  std::uint64_t id = 0;       ///< request or case id
  bool derived = false;       ///< a difference of replays, not a clock pair
};

class Tracer {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  void enable(std::size_t max_spans);
  bool on() const { return on_; }

  /// The spans of one traced operation, committed together so a capped
  /// trace never holds a parent without its children.
  class Group {
   public:
    Group(Tracer& t, std::uint64_t id) : tracer_(t), id_(id) {}
    /// Add a span; \p parent is the value an earlier add() returned.
    std::int64_t add(const char* name, TimePoint a, TimePoint b,
                     std::int64_t parent = -1, bool derived = false);
    /// Add a derived span of \p seconds laid out from \p a.
    std::int64_t add_derived(const char* name, TimePoint a, double seconds,
                             std::int64_t parent);
    void commit();

   private:
    Tracer& tracer_;
    std::uint64_t id_;
    std::vector<Span> spans_;
  };

  std::size_t size() const;
  std::size_t dropped() const;
  /// Summed self time per layer (the name up to its first '.'), seconds.
  std::map<std::string, double> self_seconds_by_layer() const;
  /// One JSON object per line; returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool on_ = false;
  std::size_t max_spans_ = 0;
  TimePoint epoch_ = std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
  std::size_t dropped_ = 0;  ///< guarded by mu_
};

}  // namespace perfbench
