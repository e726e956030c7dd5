#include "serve.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>

#include "net/wire.hpp"
#include "server/proto.hpp"

namespace ladder {

using namespace dsud;
using Clock = std::chrono::steady_clock;

namespace {

/// A phase that has not finished by then has hung; its stragglers count as
/// failed instead of blocking the run.
constexpr auto kPhaseTimeout = std::chrono::seconds(60);

std::string requestLine(const QuerySpec& spec, std::size_t index,
                        bool profile) {
  server::QueryRequest r;
  r.id = std::to_string(index);
  r.algo = spec.algo;
  r.q = spec.q;
  r.k = spec.topk ? spec.k : 0;
  r.mask = spec.mask;
  r.window = spec.window;
  r.progressive = true;
  r.profile = profile;
  return server::encodeRequest(r) + "\n";
}

void sendAll(const Socket& sock, const std::string& line) {
  std::size_t off = 0;
  while (off < line.size()) {
    const auto n = ::send(sock.fd(), line.data() + off, line.size() - off,
                          MSG_NOSIGNAL);
    if (n <= 0) throw NetError("ladder: send failed");
    off += static_cast<std::size_t>(n);
  }
}

/// The connections of one phase plus the response parser shared by both
/// loops.  Owned by one thread at a time except for the sockets, which the
/// open loop's sender writes while the reader reads.
class Client {
 public:
  Client(std::uint16_t port, std::size_t conns, std::size_t requests)
      : outcomes_(requests), inbox_(conns) {
    for (std::size_t c = 0; c < conns; ++c) {
      socks_.push_back(connectTo(port, std::chrono::milliseconds{2000}));
    }
  }

  const Socket& sock(std::size_t c) const { return socks_[c]; }
  std::vector<Outcome>& outcomes() { return outcomes_; }
  double sinceStart(Clock::time_point t) const {
    return std::chrono::duration<double, std::milli>(t - start_).count();
  }
  void start(Clock::time_point t) { start_ = t; }

  /// Polls every connection until all requests reached a terminal line,
  /// `stop` is set, or the phase times out.  `onTerminal(conn)` runs after
  /// each terminal line (the closed loop sends its next request there).
  template <typename OnTerminal>
  void readUntilDone(const std::atomic<bool>& stop, OnTerminal&& onTerminal) {
    std::vector<pollfd> fds(socks_.size());
    for (std::size_t c = 0; c < socks_.size(); ++c) {
      fds[c] = pollfd{socks_[c].fd(), POLLIN, 0};
    }
    const auto deadline = Clock::now() + kPhaseTimeout;
    char chunk[65536];
    while (terminals_ < outcomes_.size() &&
           !stop.load(std::memory_order_acquire)) {
      if (Clock::now() > deadline) break;
      if (::poll(fds.data(), fds.size(), 100) < 0) {
        throw NetError("ladder: poll failed");
      }
      for (std::size_t c = 0; c < fds.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const auto n = ::recv(fds[c].fd, chunk, sizeof chunk, 0);
        if (n <= 0) throw NetError("ladder: connection closed by server");
        const auto now = Clock::now();
        std::string& buf = inbox_[c];
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t begin = 0;
        for (std::size_t nl; (nl = buf.find('\n', begin)) != std::string::npos;
             begin = nl + 1) {
          if (onLine(std::string_view(buf).substr(begin, nl - begin), now)) {
            ++terminals_;
            onTerminal(c);
          }
        }
        buf.erase(0, begin);
      }
    }
    for (Outcome& o : outcomes_) {
      if (o.status == Outcome::Status::kPending) o.status = Outcome::Status::kFailed;
      std::sort(o.answers.begin(), o.answers.end(),
                [](const Answer& a, const Answer& b) { return a.id < b.id; });
    }
  }

 private:
  Outcome& outcomeFor(const std::string& id) {
    std::size_t index = 0;
    try {
      index = std::stoul(id);
    } catch (const std::exception&) {
      throw std::runtime_error("ladder: response for unknown id '" + id + "'");
    }
    if (index >= outcomes_.size()) {
      throw std::runtime_error("ladder: response for unknown id '" + id + "'");
    }
    return outcomes_[index];
  }

  /// Records one response line; true when it is terminal for its request.
  bool onLine(std::string_view line, Clock::time_point now) {
    const double t = sinceStart(now);
    const server::Response response = server::decodeResponse(line);
    if (const auto* ack = std::get_if<server::AckResponse>(&response)) {
      outcomeFor(ack->id).ackMs = t;
    } else if (const auto* answer =
                   std::get_if<server::AnswerResponse>(&response)) {
      Outcome& o = outcomeFor(answer->id);
      if (o.firstAnswerMs < 0) o.firstAnswerMs = t;
      o.answers.push_back(
          Answer{answer->entry.tuple.id, answer->entry.globalSkyProb});
    } else if (const auto* done = std::get_if<server::DoneResponse>(&response)) {
      Outcome& o = outcomeFor(done->id);
      o.doneMs = t;
      o.status = Outcome::Status::kDone;
      o.stats = done->stats;
      if (done->profile) {
        o.engineMs = (done->profile->prepareSeconds +
                      done->profile->executeSeconds +
                      done->profile->finalizeSeconds) *
                     1e3;
      }
      return true;
    } else if (const auto* error =
                   std::get_if<server::ErrorResponse>(&response)) {
      Outcome& o = outcomeFor(error->id);
      o.doneMs = t;
      o.status = error->code == server::ErrorCode::kOverloaded ||
                         error->code == server::ErrorCode::kUnavailable
                     ? Outcome::Status::kShed
                     : Outcome::Status::kFailed;
      return true;
    }
    return false;
  }

  std::vector<Socket> socks_;
  std::vector<Outcome> outcomes_;
  std::vector<std::string> inbox_;
  std::size_t terminals_ = 0;
  Clock::time_point start_;
};

}  // namespace

LoadResult runOpenLoop(std::uint16_t port, const std::vector<QuerySpec>& reqs,
                       double rate, std::size_t conns, bool profile) {
  Client client(port, conns, reqs.size());
  std::vector<std::string> lines;
  lines.reserve(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    lines.push_back(requestLine(reqs[i], i, profile));
  }
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  client.start(t0);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    client.outcomes()[i].dueMs = static_cast<double>(i) / rate * 1e3;
  }

  std::atomic<bool> stop{false};
  std::exception_ptr readerError;
  std::thread reader([&] {
    try {
      client.readUntilDone(stop, [](std::size_t) {});
    } catch (...) {
      readerError = std::current_exception();
    }
  });
  // Send times stay on this thread until the reader has been joined.
  std::vector<double> sentMs(reqs.size(), -1.0);
  std::exception_ptr senderError;
  try {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(i) / rate));
      std::this_thread::sleep_until(due);
      sendAll(client.sock(i % conns), lines[i]);
      sentMs[i] = client.sinceStart(Clock::now());
    }
  } catch (...) {
    senderError = std::current_exception();
    stop.store(true, std::memory_order_release);
  }
  reader.join();
  if (senderError) std::rethrow_exception(senderError);
  if (readerError) std::rethrow_exception(readerError);

  LoadResult result;
  result.outcomes = std::move(client.outcomes());
  double last = 0.0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    result.outcomes[i].sentMs = sentMs[i];
    last = std::max(last, result.outcomes[i].doneMs);
  }
  result.elapsedS = last / 1e3;
  return result;
}

LoadResult runClosedLoop(std::uint16_t port,
                         const std::vector<QuerySpec>& reqs, std::size_t conns,
                         std::size_t depth, bool profile) {
  Client client(port, conns, reqs.size());
  std::size_t next = 0;
  const auto send = [&](std::size_t conn) {
    if (next >= reqs.size()) return;
    Outcome& o = client.outcomes()[next];
    o.dueMs = o.sentMs = client.sinceStart(Clock::now());
    sendAll(client.sock(conn), requestLine(reqs[next], next, profile));
    ++next;
  };
  const auto t0 = Clock::now();
  client.start(t0);
  for (std::size_t d = 0; d < depth; ++d) {
    for (std::size_t c = 0; c < conns; ++c) send(c);
  }
  const std::atomic<bool> stop{false};
  client.readUntilDone(stop, send);

  LoadResult result;
  result.outcomes = std::move(client.outcomes());
  result.elapsedS =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return result;
}

}  // namespace ladder
