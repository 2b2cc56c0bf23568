#include "trace.hpp"

#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

std::int64_t ns_since(Tracer::TimePoint epoch, Tracer::TimePoint t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

}  // namespace

void Tracer::enable(std::size_t max_spans) {
  on_ = true;
  max_spans_ = max_spans;
  epoch_ = std::chrono::steady_clock::now();
}

std::int64_t Tracer::Group::add(const char* name, TimePoint a, TimePoint b,
                                std::int64_t parent, bool derived) {
  Span s;
  s.name = name;
  s.start_ns = ns_since(tracer_.epoch_, a);
  s.end_ns = ns_since(tracer_.epoch_, b);
  s.parent = parent;
  s.id = id_;
  s.derived = derived;
  spans_.push_back(s);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Tracer::Group::add_derived(const char* name, TimePoint a,
                                        double seconds, std::int64_t parent) {
  const auto b = a + std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::duration<double>(seconds));
  return add(name, a, b, parent, true);
}

void Tracer::Group::commit() {
  if (!tracer_.on_ || spans_.empty()) return;
  std::lock_guard<std::mutex> lock(tracer_.mu_);
  if (tracer_.spans_.size() + spans_.size() > tracer_.max_spans_) {
    tracer_.dropped_ += spans_.size();
  } else {
    // Parent indices are group-local until here.
    const auto base = static_cast<std::int64_t>(tracer_.spans_.size());
    for (auto s : spans_) {
      if (s.parent >= 0) s.parent += base;
      tracer_.spans_.push_back(s);
    }
  }
  spans_.clear();
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::size_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
  for (const auto& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const char* dot = std::strchr(spans_[i].name, '.');
    const std::string layer =
        dot ? std::string(spans_[i].name, dot) : spans_[i].name;
    by_layer[layer] += self[i];
  }
  return by_layer;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& s : spans_)
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %lld, \"id\": %llu, \"derived\": %s}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id),
                 s.derived ? "true" : "false");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
