#include "support/socket.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include <utility>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace microtools::net {

namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw McError(what + ": " + std::strerror(errno));
}

constexpr const char* kUnixPrefix = "unix:";

bool isUnixSpec(const std::string& spec) {
  return strings::startsWith(spec, kUnixPrefix);
}

/// Splits "host:port" (throws on a missing or unparsable port).
std::pair<std::string, int> splitHostPort(const std::string& spec) {
  std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    throw McError("address '" + spec +
                  "' must be host:port or unix:/path");
  }
  auto port = strings::parseInt(spec.substr(colon + 1));
  if (!port || *port < 0 || *port > 65535) {
    throw McError("address '" + spec + "' has an invalid port");
  }
  return {spec.substr(0, colon), static_cast<int>(*port)};
}

sockaddr_in tcpAddress(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw McError("cannot parse IPv4 address '" + host +
                  "' (hostnames are not resolved; use a literal address)");
  }
  return addr;
}

sockaddr_un unixAddress(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    throw McError("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Socket
// ---------------------------------------------------------------------------

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

void Socket::sendAll(const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    // MSG_NOSIGNAL: a vanished peer must surface as an McError from EPIPE,
    // not kill the process with SIGPIPE.
    ssize_t n = ::send(fd_, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throwErrno("socket send failed");
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

bool Socket::recvAll(void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    ssize_t n = ::recv(fd_, p + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throwErrno("socket recv failed");
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF on a frame boundary
      throw McError("connection closed mid-message");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------------

Listener::Listener(const std::string& spec) {
  if (isUnixSpec(spec)) {
    unixPath_ = spec.substr(std::string(kUnixPrefix).size());
    if (unixPath_.empty()) throw McError("empty unix socket path");
    ::unlink(unixPath_.c_str());  // a stale socket file would refuse the bind
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throwErrno("cannot create unix socket");
    sockaddr_un addr = unixAddress(unixPath_);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      close();
      throwErrno("cannot bind unix socket '" + unixPath_ + "'");
    }
    boundSpec_ = spec;
  } else {
    auto [host, port] = splitHostPort(spec);
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throwErrno("cannot create TCP socket");
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = tcpAddress(host, port);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      close();
      throwErrno("cannot bind '" + spec + "'");
    }
    // Resolve an ephemeral port (port 0) to the one the kernel picked, so
    // boundSpec() is always a connectable address.
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      close();
      throwErrno("getsockname failed");
    }
    boundSpec_ = host + ":" + std::to_string(ntohs(bound.sin_port));
  }
  if (::listen(fd_, 64) < 0) {
    close();
    throwErrno("cannot listen on '" + spec + "'");
  }
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_),
      boundSpec_(std::move(other.boundSpec_)),
      unixPath_(std::move(other.unixPath_)) {
  other.fd_ = -1;
  other.unixPath_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    boundSpec_ = std::move(other.boundSpec_);
    unixPath_ = std::move(other.unixPath_);
    other.fd_ = -1;
    other.unixPath_.clear();
  }
  return *this;
}

Listener::~Listener() { close(); }

Socket Listener::accept(int timeoutMs) {
  pollfd pfd{fd_, POLLIN, 0};
  int ready = ::poll(&pfd, 1, timeoutMs);
  if (ready < 0) {
    if (errno == EINTR) return Socket{};
    throwErrno("poll on listener failed");
  }
  if (ready == 0) return Socket{};  // timeout
  int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED) return Socket{};
    throwErrno("accept failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

void Listener::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!unixPath_.empty()) {
    ::unlink(unixPath_.c_str());
    unixPath_.clear();
  }
}

// ---------------------------------------------------------------------------
// connectTo
// ---------------------------------------------------------------------------

Socket connectTo(const std::string& spec) {
  int fd;
  if (isUnixSpec(spec)) {
    std::string path = spec.substr(std::string(kUnixPrefix).size());
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throwErrno("cannot create unix socket");
    sockaddr_un addr = unixAddress(path);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      int saved = errno;
      ::close(fd);
      errno = saved;
      throwErrno("cannot connect to '" + spec + "'");
    }
  } else {
    auto [host, port] = splitHostPort(spec);
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throwErrno("cannot create TCP socket");
    sockaddr_in addr = tcpAddress(host, port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      int saved = errno;
      ::close(fd);
      errno = saved;
      throwErrno("cannot connect to '" + spec + "'");
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return Socket(fd);
}

}  // namespace microtools::net
