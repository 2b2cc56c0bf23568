#include "bench.hpp"

#include <sys/resource.h>

#include "scenario/runner.hpp"
#include "scenario/server.hpp"
#include "scenario/surrogate.hpp"

namespace perfbench {

namespace {
constexpr std::size_t kMaxReasons = 50;
}  // namespace

void Outcome::attempt(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Outcome::fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (reasons_.size() < kMaxReasons) reasons_.push_back(why);
}

void Outcome::known_defect(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  if (known_defects_.size() < kMaxReasons) known_defects_.push_back(why);
}

void Outcome::wrong(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  correct_ = false;
  if (reasons_.size() < kMaxReasons) reasons_.push_back("WRONG: " + why);
}

std::size_t Outcome::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::size_t Outcome::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

bool Outcome::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return correct_;
}

std::vector<std::string> Outcome::reasons() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reasons_;
}

std::vector<std::string> Outcome::known_defects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return known_defects_;
}

void Context::put(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
  metrics[name] = {value, unit, samples};
}

void Context::put_layer(const std::string& name, double value,
                        const std::string& unit, std::size_t samples) {
  per_layer[name] = {value, unit, samples};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double metric_or(const cat::scenario::CaseResult& r, const char* name,
                 double fallback) {
  for (const auto& m : r.metrics)
    if (m.name == name) return m.value;
  return fallback;
}

Setup::Setup() = default;
Setup::~Setup() = default;
Setup::Setup(Setup&&) noexcept = default;
Setup& Setup::operator=(Setup&&) noexcept = default;

Setup make_setup(const Context& ctx) {
  namespace sc = cat::scenario;
  // Each set-up starts from an empty surrogate registry, so repeated
  // set-ups measure the same work and the registry holds one table.
  sc::clear_surrogates();
  Setup s;
  sc::ServerOptions opt;
  opt.threads = 2;
  opt.table_dir = ctx.data_dir;
  s.server = std::make_unique<sc::Server>(opt);
  s.table = std::make_shared<const sc::SurrogateTable>(
      sc::SurrogateTable::load(ctx.data_dir + "/shuttle_stag_point.surrogate.bin"));
  s.stream = ServeStream(ctx.seed, kInitialServeBlocks);
  s.stag = make_stag_inputs(ctx.seed);
  return s;
}

}  // namespace perfbench
