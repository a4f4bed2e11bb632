/**
 * @file
 * Minimal blocking client for the job-server protocol — one socket,
 * line-at-a-time I/O, used by `examples/cafqa_client.cpp`, the load
 * bench and the end-to-end tests. Higher-level flows compose the
 * encoders in `server/protocol.hpp`:
 *
 *   auto client = BlockingClient::connect_unix("/tmp/cafqa.sock");
 *   client.send_line(submit_line("j1", spec));
 *   while (auto line = client.read_line()) {
 *       const Event event = parse_event(*line);
 *       if (event.event == "result" && event.id == "j1") break;
 *   }
 *
 * Concurrency contract: a `BlockingClient` is THREAD-CONFINED — one
 * thread owns the socket, there is no internal locking and nothing
 * here for the thread-safety annotations to guard (the server side
 * holds all shared state, under `cafqa::Mutex`). The load bench and
 * tests that want concurrent traffic open one client per thread; the
 * server posts each response as a whole line to its connection's
 * outbox, so lines never interleave regardless.
 */
#ifndef CAFQA_SERVER_CLIENT_HPP
#define CAFQA_SERVER_CLIENT_HPP

#include <optional>
#include <string>
#include <vector>

#include "server/protocol.hpp"

namespace cafqa::server {

class BlockingClient
{
  public:
    /** Throws std::runtime_error when the connection fails. */
    static BlockingClient connect_tcp(const std::string& host, int port);
    static BlockingClient connect_unix(const std::string& path);

    BlockingClient(BlockingClient&& other) noexcept;
    BlockingClient& operator=(BlockingClient&& other) noexcept;
    BlockingClient(const BlockingClient&) = delete;
    BlockingClient& operator=(const BlockingClient&) = delete;
    ~BlockingClient();

    /** Send one protocol line ('\n' appended). Throws on a dead
     *  socket. */
    void send_line(const std::string& line);

    /** Next line from the server; blocks. nullopt once the server
     *  closed the stream (after its bye, or on a dropped connection). */
    std::optional<std::string> read_line();

  private:
    explicit BlockingClient(int fd);

    int fd_ = -1;
    LineFramer framer_;
    std::vector<std::string> pending_;
    std::size_t next_pending_ = 0;
    bool eof_ = false;
};

} // namespace cafqa::server

#endif // CAFQA_SERVER_CLIENT_HPP
