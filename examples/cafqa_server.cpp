/**
 * @file
 * The CAFQA serving daemon: bind a socket, accept JSON-lines requests,
 * execute jobs over a shared worker pool, stream records back. A served
 * job runs exactly as a solo run of its spec; the only state jobs share
 * is the exact-energy memo. SIGTERM/SIGINT drain gracefully — admission
 * stops, in-flight and queued jobs finish and flush their records, then
 * the server says bye and exits.
 *
 * Usage:
 *   cafqa_server [--unix PATH | --host ADDR --port N]
 *                [--workers N] [--queue N] [--run-threads N]
 *
 * Defaults: TCP on 127.0.0.1 with an ephemeral port (printed on
 * stdout as `listening on 127.0.0.1:PORT`), 2 workers, queue of 1024.
 * A Unix-domain server prints `listening on PATH` instead. The protocol
 * grammar lives in `src/server/protocol.hpp` and the README's Serving
 * section.
 */
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/text.hpp"
#include "server/job_server.hpp"

namespace {

[[noreturn]] void
fail(const std::string& message)
{
    std::cerr << "cafqa_server: " << message << '\n'
              << "usage: cafqa_server [--unix PATH | --host ADDR "
                 "--port N] [--workers N] [--queue N] [--run-threads N]\n";
    std::exit(1);
}

std::size_t
parse_count(const std::string& flag, const std::string& text,
            std::int64_t min_value)
{
    const auto value = cafqa::parse_integer_token(text);
    if (!value || *value < min_value) {
        fail(flag + " expects an integer >= " +
             std::to_string(min_value) + ", got '" + text + "'");
    }
    return static_cast<std::size_t>(*value);
}

/** Signal -> self-pipe (the only async-signal-safe hand-off): the main
 *  thread blocks on the read end and turns the byte into a drain. */
int signal_pipe[2] = {-1, -1};

extern "C" void
on_terminate(int)
{
    const char byte = 't';
    [[maybe_unused]] const ssize_t n = ::write(signal_pipe[1], &byte, 1);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace cafqa;
    using namespace cafqa::server;

    ServerOptions options;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> const char* {
                if (i + 1 >= argc) {
                    fail(arg + " requires a value");
                }
                return argv[++i];
            };
            if (arg == "--unix") {
                options.unix_path = next();
            } else if (arg == "--host") {
                options.host = next();
            } else if (arg == "--port") {
                options.port =
                    static_cast<int>(parse_count(arg, next(), 0));
            } else if (arg == "--workers") {
                options.workers = parse_count(arg, next(), 1);
            } else if (arg == "--queue") {
                options.queue_capacity = parse_count(arg, next(), 1);
            } else if (arg == "--run-threads") {
                options.run_threads = parse_count(arg, next(), 1);
            } else {
                fail("unknown option '" + arg + "'");
            }
        }

        if (::pipe(signal_pipe) != 0) {
            fail("cannot create the signal pipe");
        }

        JobServer server(options);
        server.start();
        if (!options.unix_path.empty()) {
            std::cout << "listening on " << options.unix_path
                      << std::endl;
        } else {
            std::cout << "listening on " << options.host << ":"
                      << server.port() << std::endl;
        }

        struct sigaction action{};
        action.sa_handler = on_terminate;
        ::sigaction(SIGTERM, &action, nullptr);
        ::sigaction(SIGINT, &action, nullptr);

        // Drain on the first signal byte; a client `shutdown` op makes
        // wait() return on its own, so watch both in a helper thread.
        // lint:allow(raw-thread) a signal watcher must block in read()
        // independently of the pool; it is joined right below.
        std::thread signal_watcher([&server] {
            char byte;
            if (::read(signal_pipe[0], &byte, 1) == 1) {
                server.shutdown(true);
            }
        });

        server.wait();

        // Unblock the watcher if shutdown came over the wire instead.
        on_terminate(0);
        signal_watcher.join();

        const ServerCounters counters = server.counters();
        std::cerr << "cafqa_server: drained; submitted "
                  << counters.submitted << ", completed "
                  << counters.completed << ", cancelled "
                  << counters.cancelled << ", rejected "
                  << counters.rejected << '\n';
    } catch (const std::exception& error) {
        std::cerr << "cafqa_server: " << error.what() << '\n';
        return 1;
    }
    return 0;
}
