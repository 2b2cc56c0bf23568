// cat_serve — the serving front: a line-oriented request/response shell
// over scenario::Server (sharded result cache, request coalescing, async
// bounded job queue, surrogate -> correlation -> full-solve fallback).
// The protocol itself (tokenizing, dispatch, JSON replies, line caps)
// lives in src/scenario/protocol.{hpp,cpp}; this file is only the
// stdio/TCP plumbing plus argument parsing.
//
//   cat_serve --tables data                      # stdio front (default)
//   cat_serve --tables data --port 7457          # TCP front on 127.0.0.1
//
// Protocol: one request per line, one JSON object per response line.
//
//   query <scenario> [v=M_PER_S] [alt=M] [tier=surrogate|correlation|
//                                              smoke|nominal]
//   list            -> registered scenario names
//   stats           -> serving counters (cache hits, tiers, timeouts)
//   quit            -> close this session (stdio: exit; tcp: drop conn)
//   stop            -> tcp only: shut the whole server down
//
// Request lines are untrusted: length and token count are capped
// (protocol::kMaxLineBytes / kMaxTokens), an oversize line gets one
// structured error reply instead of being misparsed as fragments, and
// buffer memory per session is bounded whatever the peer sends.
//
// Query responses carry no timing, so a response stream is byte-identical
// for any --threads value — the determinism contract the smoke tests pin.
//
// Exit code 0 on clean shutdown, 1 on usage/setup errors.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#define CAT_SERVE_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "arg_parse.hpp"
#include "scenario/protocol.hpp"
#include "scenario/server.hpp"

using namespace cat;
namespace protocol = cat::scenario::protocol;

namespace {

void print_usage() {
  std::printf(
      "usage: cat_serve [options]\n"
      "options:\n"
      "  --stdio             serve requests on stdin/stdout (default)\n"
      "  --port N            serve TCP on 127.0.0.1:N instead\n"
      "  --threads N         worker threads (0 = all cores; default 1)\n"
      "  --tables DIR        preload every *.surrogate.bin under DIR\n"
      "  --timeout S         full-solve timeout seconds (default 60)\n"
      "  --shards N          cache shard count (default 8)\n"
      "  --queue N           bounded job-queue capacity (default 64)\n"
      "  --no-solve          disable the full-solve tier (fast tiers only)\n"
      "protocol: query <scenario> [v=MPS] [alt=M] [tier=T] | list | stats\n"
      "          | quit | stop\n");
}

/// Drive one input chunk through the session's LineBuffer, answering
/// every completed line. Returns kReply while the session stays open.
protocol::LineAction pump_lines(scenario::Server& server,
                                protocol::LineBuffer& lb,
                                std::string_view chunk,
                                const std::function<bool(const std::string&)>&
                                    send) {
  lb.append(chunk);
  std::string line, reply;
  bool overflowed = false;
  while (lb.next_line(&line, &overflowed)) {
    protocol::LineAction action = protocol::LineAction::kReply;
    if (overflowed)
      reply = protocol::oversize_reply();
    else
      action = protocol::handle_line(server, line, &reply);
    if (action != protocol::LineAction::kReply) return action;
    if (!reply.empty() && !send(reply)) return protocol::LineAction::kQuit;
  }
  return protocol::LineAction::kReply;
}

int serve_stdio(scenario::Server& server) {
  protocol::LineBuffer lb;
  char buf[4096];
  const auto send = [](const std::string& reply) {
    std::fputs(reply.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
    return true;
  };
  bool open = true;
  while (open && std::fgets(buf, sizeof buf, stdin) != nullptr)
    open = pump_lines(server, lb, buf,
                      send) == protocol::LineAction::kReply;
  if (open) {
    // EOF without a final newline: the trailing bytes are still one line.
    std::string line, reply;
    bool overflowed = false;
    if (lb.finish(&line, &overflowed)) {
      if (overflowed)
        reply = protocol::oversize_reply();
      else
        protocol::handle_line(server, line, &reply);
      if (!reply.empty()) send(reply);
    }
  }
  server.shutdown();
  return 0;
}

#ifdef CAT_SERVE_HAVE_SOCKETS
int serve_tcp(scenario::Server& server, std::size_t port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("cat_serve: socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local clients only
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  // cat-lint: untrusted-ok(sockaddr_in -> sockaddr is the sockets API's
  // own required cast; no untrusted bytes are reinterpreted)
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 8) != 0) {
    std::perror("cat_serve: bind/listen");
    ::close(listener);
    return 1;
  }
  std::printf("cat_serve: listening on 127.0.0.1:%zu\n", port);
  std::fflush(stdout);

  bool running = true;
  while (running) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) continue;
    const auto send = [conn](const std::string& reply) {
      const std::string out = reply + "\n";
      // Best-effort write: a client that hangs up mid-reply just ends
      // its own session.
      return ::write(conn, out.data(), out.size()) >= 0;
    };
    protocol::LineBuffer lb;
    char buf[4096];
    bool open = true;
    while (open) {
      const ssize_t n = ::read(conn, buf, sizeof buf);
      if (n <= 0) break;
      const auto action =
          pump_lines(server, lb, {buf, static_cast<std::size_t>(n)}, send);
      if (action == protocol::LineAction::kStop) running = false;
      open = action == protocol::LineAction::kReply;
    }
    ::close(conn);
  }
  ::close(listener);
  server.shutdown();
  return 0;
}
#endif  // CAT_SERVE_HAVE_SOCKETS

}  // namespace

int main(int argc, char** argv) {
  scenario::ServerOptions opt;
  std::string tables_dir;
  bool use_tcp = false;
  std::size_t port = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto matches = [&](const char* flag) {
      const std::size_t n = std::strlen(flag);
      return arg == flag ||
             (arg.size() > n && arg.compare(0, n, flag) == 0 &&
              arg[n] == '=');
    };
    auto value = [&](const char* flag) -> std::string {
      const std::size_t n = std::strlen(flag);
      if (arg.size() > n && arg[n] == '=') return arg.substr(n + 1);
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--stdio") {
      use_tcp = false;
    } else if (matches("--port")) {
      port = tools::parse_size_arg("--port", value("--port"), 1, 65535);
      use_tcp = true;
    } else if (matches("--threads")) {
      opt.threads = tools::parse_threads_arg(value("--threads"));
    } else if (matches("--tables")) {
      tables_dir = value("--tables");
    } else if (matches("--timeout")) {
      opt.request_timeout_s =
          tools::parse_double_arg("--timeout", value("--timeout"), 0.001,
                                  86400.0);
    } else if (matches("--shards")) {
      opt.cache_shards =
          tools::parse_size_arg("--shards", value("--shards"), 1, 4096);
    } else if (matches("--queue")) {
      opt.queue_capacity =
          tools::parse_size_arg("--queue", value("--queue"), 1, 1u << 20);
    } else if (arg == "--no-solve") {
      opt.allow_solve = false;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      print_usage();
      return 1;
    }
  }

  try {
    scenario::Server server(opt);
    if (!tables_dir.empty()) {
      const std::size_t n = server.preload_tables(tables_dir);
      std::fprintf(stderr, "cat_serve: preloaded %zu surrogate table%s from %s\n",
                   n, n == 1 ? "" : "s", tables_dir.c_str());
    }
#ifdef CAT_SERVE_HAVE_SOCKETS
    if (use_tcp) return serve_tcp(server, port);
#else
    if (use_tcp) {
      std::fprintf(stderr, "error: this build has no socket support; "
                           "use --stdio\n");
      return 1;
    }
#endif
    return serve_stdio(server);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "error: %s\n", err.what());
    return 1;
  }
}
