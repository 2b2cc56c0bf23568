#include "scenario/protocol.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "scenario/registry.hpp"
#include "scenario/server.hpp"
#include "tools/arg_parse.hpp"

namespace cat::scenario::protocol {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        // Remaining control bytes (an untrusted line can carry any byte)
        // must be \u-escaped or the reply is not valid JSON.
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
        break;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan spelling
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// The JSON emitters build by append throughout: GCC 12's -Wrestrict
// misfires (as an error here) on operator+ chains mixing literals with
// rvalue std::strings.
std::string error_reply(const std::string& message) {
  std::string out = "{\"ok\": false, \"error\": \"";
  out += json_escape(message);
  out += "\"}";
  return out;
}

std::string oversize_reply() {
  return error_reply("request line exceeds " +
                     std::to_string(kMaxLineBytes) + " bytes");
}

std::string reply_to_json(const ServeReply& r) {
  if (!r.ok) return error_reply(r.error);
  std::string out = "{\"ok\": true, \"case\": \"";
  out += json_escape(r.case_name);
  out += "\", \"tier\": \"";
  out += r.tier;
  out += "\", \"cached\": ";
  out += r.from_cache ? "true" : "false";
  out += ", \"coalesced\": ";
  out += r.coalesced ? "true" : "false";
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += "\"";
    out += json_escape(m.name);
    out += "\": {\"value\": ";
    out += json_number(m.value);
    out += ", \"unit\": \"";
    out += json_escape(m.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
    std::size_t j = i;
    while (j < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[j])))
      ++j;
    if (j > i) {
      tokens.emplace_back(line.substr(i, j - i));
      // One past the cap is enough to prove the line is over-limit;
      // splitting the rest would let token count scale with input size.
      if (tokens.size() > kMaxTokens) return tokens;
    }
    i = j;
  }
  return tokens;
}

namespace {

std::string handle_query(Server& server,
                         const std::vector<std::string>& tokens) {
  if (tokens.size() < 2)
    return error_reply("query needs a scenario name (try: list)");
  const Case* base = find_scenario(tokens[1]);
  if (base == nullptr)
    return error_reply("unknown scenario '" + tokens[1] + "' (try: list)");
  Case c = *base;
  c.fidelity = Fidelity::kSurrogate;  // serve the ladder by default
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos || eq == 0)
      return error_reply("bad query option '" + t +
                         "' (expected key=value)");
    const std::string key = t.substr(0, eq), val = t.substr(eq + 1);
    if (key == "v") {
      if (!tools::try_parse_double(val, 1.0, 1e6, &c.condition.velocity_mps))
        return error_reply("bad v='" + val + "' (finite m/s in [1, 1e6])");
    } else if (key == "alt") {
      if (!tools::try_parse_double(val, -500.0, 1e6,
                                   &c.condition.altitude_m))
        return error_reply("bad alt='" + val +
                           "' (finite m in [-500, 1e6])");
    } else if (key == "tier") {
      if (!parse_fidelity(val, &c.fidelity))
        return error_reply(
            "bad tier='" + val +
            "' (surrogate | correlation | smoke | nominal)");
    } else {
      return error_reply("unknown query option '" + key +
                         "' (v | alt | tier)");
    }
  }
  return reply_to_json(server.serve(c));
}

std::string handle_stats(const Server& server) {
  const auto s = server.stats();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"ok\": true, \"requests\": %zu, \"cache_hits\": %zu, "
                "\"coalesced\": %zu, \"served_surrogate\": %zu, "
                "\"served_correlation\": %zu, \"served_solve\": %zu, "
                "\"errors\": %zu, \"timeouts\": %zu}",
                s.requests, s.cache_hits, s.coalesced, s.served_surrogate,
                s.served_correlation, s.served_solve, s.errors, s.timeouts);
  return buf;
}

}  // namespace

LineAction handle_line(Server& server, std::string_view line,
                       std::string* out) {
  out->clear();
  if (line.size() > kMaxLineBytes) {
    *out = oversize_reply();
    return LineAction::kReply;
  }
  const auto tokens = tokenize(line);
  if (tokens.empty()) return LineAction::kReply;  // blank line: ignore
  if (tokens.size() > kMaxTokens) {
    *out = error_reply("request line exceeds " +
                       std::to_string(kMaxTokens) + " tokens");
    return LineAction::kReply;
  }
  const std::string& cmd = tokens[0];
  if (cmd == "quit") return LineAction::kQuit;
  if (cmd == "stop") return LineAction::kStop;
  if (cmd == "query") {
    *out = handle_query(server, tokens);
  } else if (cmd == "list") {
    std::string names = "{\"ok\": true, \"scenarios\": [";
    const auto all = scenario_names();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (i > 0) names += ", ";
      names += "\"";
      names += json_escape(all[i]);
      names += "\"";
    }
    names += "]}";
    *out = names;
  } else if (cmd == "stats") {
    *out = handle_stats(server);
  } else {
    // Built by append: GCC 12's -Wrestrict misfires on the equivalent
    // operator+ chain here.
    std::string msg = "unknown command '";
    msg += cmd;
    msg += "' (query | list | stats | quit | stop)";
    *out = error_reply(msg);
  }
  return LineAction::kReply;
}

void LineBuffer::compact() {
  // Drop consumed lines once the cursor catches up, so a long session
  // does not accumulate every line it ever saw.
  if (next_ == ready_.size()) {
    ready_.clear();
    ready_overflowed_.clear();
    next_ = 0;
  }
}

void LineBuffer::append(std::string_view chunk) {
  for (const char ch : chunk) {
    if (ch == '\n') {
      if (!cur_.empty() && cur_.back() == '\r') cur_.pop_back();
      ready_.push_back(std::move(cur_));
      ready_overflowed_.push_back(discarding_);
      cur_.clear();
      discarding_ = false;
      continue;
    }
    if (discarding_) continue;
    if (cur_.size() >= kMaxLineBytes) {
      // Over the cap: stop storing, remember the overflow, and resume at
      // the next newline. Memory stays bounded whatever the input does.
      discarding_ = true;
      continue;
    }
    cur_.push_back(ch);
  }
}

bool LineBuffer::next_line(std::string* line, bool* overflowed) {
  if (next_ >= ready_.size()) return false;
  *line = std::move(ready_[next_]);
  *overflowed = ready_overflowed_[next_];
  ++next_;
  compact();
  return true;
}

bool LineBuffer::finish(std::string* line, bool* overflowed) {
  if (next_ < ready_.size()) return next_line(line, overflowed);
  if (cur_.empty() && !discarding_) return false;
  if (!cur_.empty() && cur_.back() == '\r') cur_.pop_back();
  *line = std::move(cur_);
  *overflowed = discarding_;
  cur_.clear();
  discarding_ = false;
  return true;
}

}  // namespace cat::scenario::protocol
