#include "server/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/error.hpp"

namespace cafqa::server {

namespace {

[[noreturn]] void
fail_errno(const std::string& what)
{
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

} // namespace

BlockingClient::BlockingClient(int fd) : fd_(fd) {}

BlockingClient::BlockingClient(BlockingClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      framer_(std::move(other.framer_)),
      pending_(std::move(other.pending_)),
      next_pending_(other.next_pending_),
      eof_(other.eof_)
{
}

BlockingClient&
BlockingClient::operator=(BlockingClient&& other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0) {
            ::close(fd_);
        }
        fd_ = std::exchange(other.fd_, -1);
        framer_ = std::move(other.framer_);
        pending_ = std::move(other.pending_);
        next_pending_ = other.next_pending_;
        eof_ = other.eof_;
    }
    return *this;
}

BlockingClient::~BlockingClient()
{
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

BlockingClient
BlockingClient::connect_tcp(const std::string& host, int port)
{
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
        throw std::runtime_error("bad server address: " + host);
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        fail_errno("socket(AF_INET)");
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        fail_errno("connect(" + host + ":" + std::to_string(port) + ")");
    }
    return BlockingClient(fd);
}

BlockingClient
BlockingClient::connect_unix(const std::string& path)
{
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    CAFQA_REQUIRE(path.size() < sizeof(address.sun_path),
                  "unix socket path too long: " + path);
    std::strncpy(address.sun_path, path.c_str(),
                 sizeof(address.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        fail_errno("socket(AF_UNIX)");
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        fail_errno("connect(" + path + ")");
    }
    return BlockingClient(fd);
}

void
BlockingClient::send_line(const std::string& line)
{
    CAFQA_REQUIRE(fd_ >= 0, "client not connected");
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
        const ssize_t n = ::send(fd_, framed.data() + sent,
                                 framed.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            fail_errno("send");
        }
        sent += static_cast<std::size_t>(n);
    }
}

std::optional<std::string>
BlockingClient::read_line()
{
    for (;;) {
        if (next_pending_ < pending_.size()) {
            return std::move(pending_[next_pending_++]);
        }
        if (eof_) {
            return std::nullopt;
        }
        pending_.clear();
        next_pending_ = 0;
        char buffer[4096];
        const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            fail_errno("recv");
        }
        if (n == 0) {
            eof_ = true;
            continue;
        }
        if (!framer_.feed(
                std::string_view(buffer, static_cast<std::size_t>(n)),
                pending_)) {
            throw std::runtime_error(
                "server response line exceeds " +
                std::to_string(framer_.max_line_bytes()) + " bytes");
        }
    }
}

} // namespace cafqa::server
