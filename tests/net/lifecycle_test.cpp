// Connection teardown and backpressure.  Closing clients while their
// readers wait in recv is race-free — only shutdown() reaches across
// threads, and the descriptor is closed once the reader has joined (the
// TSan job watches this) — and a requester that stops reading loses only
// its own connection when its outbox overflows: other connections keep
// getting bit-identical answers and the service keeps computing.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "dew/sweep.hpp"
#include "net/client.hpp"
#include "net/frame_server.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "support/bytes.hpp"
#include "trace/digest.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::net;
using test_support::sweep_bytes;

TEST(Lifecycle, ClosingClientsWhoseReadersWaitInRecvIsRaceFree) {
    server srv{{}};
    for (int round = 0; round < 4; ++round) {
        std::vector<std::unique_ptr<client>> clients;
        for (int i = 0; i < 64; ++i) {
            clients.push_back(
                std::make_unique<client>("127.0.0.1", srv.port()));
            // Answered, so the reader is back in recv for the next frame.
            clients.back()->ping();
        }
        for (const auto& cli : clients) {
            cli->close();
        }
        for (const auto& cli : clients) {
            EXPECT_THROW(cli->ping(), socket_error);
        }
    }
    client after{"127.0.0.1", srv.port()};
    after.ping();
}

TEST(Lifecycle, RequesterThatStopsReadingLosesOnlyItsOwnConnection) {
    server srv{{}};
    client healthy{"127.0.0.1", srv.port()};
    const trace::mem_trace records =
        trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 4000);
    const trace::trace_digest digest = healthy.register_trace(records);

    // The paper grid answers with a ~10 KB frame: computed once, then
    // cache hits that fill the socket buffers and the outbox quickly.
    serve::service_request big;
    big.sweep = core::sweep_request::paper();
    const std::string big_answer =
        sweep_bytes(core::run_sweep(records, big.sweep));
    ASSERT_EQ(sweep_bytes(*healthy.submit(digest, big).get().sweep),
              big_answer);

    // Submit without reading until the server gives up on this requester:
    // its answers fill the socket buffers, then the outbox, and one more
    // closes the connection — a send here then fails with a reset.  The
    // deadline and the socket timeouts only bound a server that never
    // would.
    socket_fd slow = connect_to("127.0.0.1", srv.port());
    const timeval patience{30, 0};
    for (const int option : {SO_RCVTIMEO, SO_SNDTIMEO}) {
        ASSERT_EQ(::setsockopt(slow.get(), SOL_SOCKET, option, &patience,
                               sizeof patience),
                  0);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{30};
    std::size_t sent = 0;
    bool dropped = false;
    try {
        while (std::chrono::steady_clock::now() < deadline) {
            const std::string frame = encode_frame(
                message_type::submit, sent + 1, encode_submit({digest, big}));
            write_all(slow, frame.data(), frame.size());
            ++sent;
        }
    } catch (const socket_error& fault) {
        dropped = fault.code().value() != EAGAIN; // a timeout is no close
    }
    ASSERT_TRUE(dropped) << "the server kept a requester that never reads";
    EXPECT_GT(sent, frame_connection::outbox_frames);

    // Now read: what was queued arrives, then the connection ends — well
    // short of one answer per submit.
    std::size_t answered = 0;
    try {
        std::string header_bytes(frame_header_bytes, '\0');
        while (read_exact(slow, header_bytes.data(), header_bytes.size()) ==
               header_bytes.size()) {
            const frame_header header = parse_header(header_bytes);
            std::string payload(header.payload_bytes, '\0');
            if (read_exact(slow, payload.data(), payload.size()) !=
                payload.size()) {
                break;
            }
            EXPECT_EQ(header.type, message_type::result);
            ++answered;
        }
    } catch (const socket_error& fault) {
        // A reset is the server closing with our submits unread; a timeout
        // would mean it never closed at all.
        EXPECT_NE(fault.code().value(), EAGAIN) << fault.what();
    }
    EXPECT_LT(answered, sent);

    // The other connection, and the service behind it, never noticed.
    EXPECT_EQ(sweep_bytes(*healthy.submit(digest, big).get().sweep),
              big_answer);
    serve::service_request fresh;
    fresh.sweep.max_set_exp = 5;
    fresh.sweep.block_sizes = {16};
    fresh.sweep.associativities = {2, 8};
    const serve::service_result computed =
        healthy.submit(digest, fresh).get();
    EXPECT_FALSE(computed.cache_hit);
    EXPECT_EQ(sweep_bytes(*computed.sweep),
              sweep_bytes(core::run_sweep(records, fresh.sweep)));
    client later{"127.0.0.1", srv.port()};
    later.ping();
}

} // namespace
