#include "net/wire.hpp"
#include <algorithm>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace dsud {
namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

void writeAll(int fd, const std::byte* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t rc = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      // SO_SNDTIMEO expiry: the kernel reports the would-block errno.
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw NetTimeout("send: timed out");
      }
      throwErrno("send");
    }
    sent += static_cast<std::size_t>(rc);
  }
}

void readAll(int fd, std::byte* data, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::recv(fd, data + got, n - got, 0);
    if (rc < 0) {
      if (errno == EINTR) continue;
      // SO_RCVTIMEO expiry: the kernel reports the would-block errno.
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw NetTimeout("recv: timed out");
      }
      throwErrno("recv");
    }
    if (rc == 0) throw NetError("recv: connection closed by peer");
    got += static_cast<std::size_t>(rc);
  }
}

}  // namespace

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket::~Socket() { close(); }

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket listenOn(std::uint16_t port, std::uint16_t* boundPort) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throwErrno("socket");

  const int enable = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throwErrno("bind");
  }
  if (::listen(sock.fd(), 64) != 0) throwErrno("listen");

  if (boundPort != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      throwErrno("getsockname");
    }
    *boundPort = ntohs(bound.sin_port);
  }
  return sock;
}

Socket acceptFrom(const Socket& listener) {
  while (true) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      Socket sock(fd);
      const int enable = 1;
      ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &enable,
                   sizeof(enable));
      return sock;
    }
    if (errno == EINTR) continue;
    throwErrno("accept");
  }
}

Socket connectTo(std::uint16_t port, std::chrono::milliseconds timeout) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throwErrno("socket");

  // The request/response protocol sends one small frame per round trip, so
  // Nagle would cost tens of ms per RPC.
  const int enable = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);

  if (timeout.count() <= 0) {
    if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      throwErrno("connect");
    }
    return sock;
  }

  // Bounded connect: non-blocking connect raced against poll.
  const int flags = ::fcntl(sock.fd(), F_GETFL, 0);
  if (flags < 0) throwErrno("fcntl(F_GETFL)");
  if (::fcntl(sock.fd(), F_SETFL, flags | O_NONBLOCK) != 0) {
    throwErrno("fcntl(F_SETFL)");
  }
  const int rc =
      ::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) throwErrno("connect");
    pollfd pfd{sock.fd(), POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (ready < 0) throwErrno("poll");
    if (ready == 0) throw NetTimeout("connect: timed out");
    int soError = 0;
    socklen_t len = sizeof(soError);
    if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &soError, &len) != 0) {
      throwErrno("getsockopt(SO_ERROR)");
    }
    if (soError != 0) {
      throw NetError(std::string("connect: ") + std::strerror(soError));
    }
  }
  if (::fcntl(sock.fd(), F_SETFL, flags) != 0) throwErrno("fcntl(F_SETFL)");
  return sock;
}

void setSocketTimeouts(const Socket& socket, std::chrono::milliseconds timeout) {
  timeval tv{};
  if (timeout.count() > 0) {
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  }
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void writeFrame(const Socket& socket, const Frame& frame) {
  if (frame.size() > kMaxFrameBytes) {
    throw NetError("writeFrame: frame exceeds kMaxFrameBytes");
  }
  // One buffer, one send: a separate 4-byte header write would interact
  // with Nagle + delayed ACK and cost tens of milliseconds per RPC.
  const auto n = static_cast<std::uint32_t>(frame.size());
  std::vector<std::byte> wire(4 + frame.size());
  for (int i = 0; i < 4; ++i) {
    wire[static_cast<std::size_t>(i)] =
        static_cast<std::byte>((n >> (8 * i)) & 0xff);
  }
  std::copy(frame.begin(), frame.end(), wire.begin() + 4);
  writeAll(socket.fd(), wire.data(), wire.size());
}

Frame readFrame(const Socket& socket) {
  std::byte header[4];
  readAll(socket.fd(), header, sizeof(header));
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) {
    n |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(header[i]))
         << (8 * i);
  }
  if (n > kMaxFrameBytes) throw NetError("readFrame: oversized frame");
  Frame frame(n);
  if (n > 0) readAll(socket.fd(), frame.data(), n);
  return frame;
}

}  // namespace dsud
