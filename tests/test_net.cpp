// Tests for the network front door: frame reassembly from arbitrary
// chunking (including one byte at a time), hostile network input
// (mid-frame disconnects, garbage streams, unmounted shard paths, slow
// readers), per-connection correlation-id spaces under deliberately
// colliding ids (live cancel, shard streams, duplicate live ids), typed
// admission shedding against a paused fleet, graceful drain semantics,
// the plaintext metrics probe, and multi-store, multi-backend fleets
// behind the same socket.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "api/client.hpp"
#include "api/codec.hpp"
#include "api/message.hpp"
#include "data/corpus_store.hpp"
#include "federation/federated_server.hpp"
#include "net/socket.hpp"
#include "net/tcp_server.hpp"
#include "obs/trace.hpp"
#include "service/fault_plan.hpp"
#include "service/profiles.hpp"
#include "sim/building_generator.hpp"

namespace {

using namespace fisone;

data::building tiny_building(std::size_t i) {
    sim::building_spec spec;
    spec.name = "net-";
    spec.name += std::to_string(i);
    spec.num_floors = 3;
    spec.samples_per_floor = 12;
    spec.aps_per_floor = 6;
    spec.seed = 1400 + i;
    return sim::generate_building(spec).building;
}

std::string identify_frame(std::uint64_t corr, std::size_t corpus_index, std::size_t which) {
    api::identify_building_request req;
    req.correlation_id = corr;
    req.has_index = true;
    req.corpus_index = corpus_index;
    req.b = tiny_building(which);
    return api::encode(api::request(req));
}

api::response decode_one(const std::string& frame) {
    const api::decode_result<api::response> r = api::decode_response(frame);
    EXPECT_TRUE(r.ok()) << (r.error ? r.error->message : "eof");
    return r.ok() ? *r.value : api::response(api::error_response{});
}

/// A 1-backend fleet (no stores mounted) + tcp_server + loop thread,
/// drained on destruction.
class test_front {
public:
    explicit test_front(net::tcp_server_config cfg = {}, bool paused = false) {
        federation::federation_config fcfg;
        fcfg.service = service::quick_profile(11, 1);
        fcfg.num_backends = 1;
        fleet_ = std::make_unique<federation::federated_server>(fcfg);
        if (paused) fleet_->pause();
        front_ = std::make_unique<net::tcp_server>(*fleet_, std::move(cfg));
        loop_ = std::thread([this] { front_->run(); });
    }

    ~test_front() {
        front_->drain();
        loop_.join();
    }

    [[nodiscard]] net::tcp_server& front() { return *front_; }
    [[nodiscard]] federation::federated_server& fleet() { return *fleet_; }
    [[nodiscard]] std::uint16_t port() const { return front_->port(); }

private:
    std::unique_ptr<federation::federated_server> fleet_;
    std::unique_ptr<net::tcp_server> front_;
    std::thread loop_;
};

/// Read everything until EOF off a raw (non-framed) connection.
std::string slurp(int fd) {
    std::string out;
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0) return out;
        out.append(chunk, static_cast<std::size_t>(n));
    }
}

// --- frame_splitter ----------------------------------------------------------

TEST(FrameSplitter, ReassemblesFromSingleByteChunks) {
    const std::string a = api::encode(api::request(api::get_stats_request{7}));
    const std::string b = api::encode(api::request(api::flush_request{8}));
    const std::string stream = a + b;
    api::frame_splitter split;
    std::vector<std::string> frames;
    for (const char c : stream) {
        split.append(std::string_view(&c, 1));
        while (std::optional<std::string> f = split.next()) frames.push_back(*f);
    }
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0], a);
    EXPECT_EQ(frames[1], b);
    EXPECT_TRUE(split.at_boundary());
    EXPECT_FALSE(split.error());
}

TEST(FrameSplitter, EveryPrefixSplitYieldsTheSameFrames) {
    const std::string a = api::encode(api::request(api::cancel_job_request{3, 99}));
    const std::string b = api::encode(api::request(api::get_stats_request{4}));
    const std::string stream = a + b;
    for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
        api::frame_splitter split;
        split.append(std::string_view(stream).substr(0, cut));
        split.append(std::string_view(stream).substr(cut));
        std::vector<std::string> frames;
        while (std::optional<std::string> f = split.next()) frames.push_back(*f);
        ASSERT_EQ(frames.size(), 2u) << "cut at " << cut;
        EXPECT_EQ(frames[0], a) << "cut at " << cut;
        EXPECT_EQ(frames[1], b) << "cut at " << cut;
    }
}

TEST(FrameSplitter, BadMagicIsFatalImmediately) {
    api::frame_splitter split;
    split.append("GARBAGE STREAM");
    EXPECT_FALSE(split.next().has_value());
    ASSERT_TRUE(split.error().has_value());
    EXPECT_EQ(split.error()->code, api::error_code::bad_magic);
}

TEST(FrameSplitter, OversizedLengthRejectedBeforeBuffering) {
    // Hand-craft a header declaring a payload the codec bound forbids.
    std::string header = "FIS1";
    const auto push_u32 = [&header](std::uint32_t v) {
        for (int i = 0; i < 4; ++i) header.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    };
    push_u32(api::k_schema_version);
    header.push_back(1);  // tag lo
    header.push_back(0);  // tag hi
    push_u32(static_cast<std::uint32_t>(api::k_max_payload + 1));
    api::frame_splitter split;
    split.append(header);
    EXPECT_FALSE(split.next().has_value());
    ASSERT_TRUE(split.error().has_value());
    EXPECT_EQ(split.error()->code, api::error_code::oversized);
}

// --- hostile network input ---------------------------------------------------

TEST(TcpServer, ByteAtATimeDeliveryStillDecodes) {
    test_front tf;
    net::frame_conn conn("127.0.0.1", tf.port());
    const std::string frame = identify_frame(21, 0, 0);
    for (const char c : frame) conn.send(std::string_view(&c, 1));
    conn.shutdown_write();
    const std::optional<std::string> reply = conn.read_frame();
    ASSERT_TRUE(reply.has_value());
    const api::response resp = decode_one(*reply);
    const auto* b = std::get_if<api::building_response>(&resp);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->correlation_id, 21u);
    EXPECT_TRUE(b->report.ok) << b->report.error;
    EXPECT_FALSE(conn.read_frame().has_value());  // clean EOF after the answer
}

TEST(TcpServer, MidFrameDisconnectLeavesServerServing) {
    test_front tf;
    {
        net::frame_conn conn("127.0.0.1", tf.port());
        const std::string frame = identify_frame(1, 0, 0);
        conn.send(std::string_view(frame).substr(0, frame.size() / 2));
        conn.close();  // vanish mid-frame
    }
    // The server must shrug that off and serve the next connection fully.
    net::frame_conn conn("127.0.0.1", tf.port());
    conn.send(identify_frame(2, 1, 1));
    conn.shutdown_write();
    const std::optional<std::string> reply = conn.read_frame();
    ASSERT_TRUE(reply.has_value());
    const api::response resp = decode_one(*reply);
    const auto* b = std::get_if<api::building_response>(&resp);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->correlation_id, 2u);
}

TEST(TcpServer, GarbageStreamGetsTypedErrorThenClose) {
    test_front tf;
    net::frame_conn conn("127.0.0.1", tf.port());
    // Starts with the magic (so it is framed mode), then declares an
    // absurd payload length — framing integrity is gone for good.
    conn.send("FIS1\xff\xff\xff\xff nonsense follows");
    bool saw_error = false;
    for (;;) {
        std::optional<std::string> reply;
        try {
            reply = conn.read_frame();
        } catch (const std::exception&) {
            break;  // server closed mid-read; the error frame already landed
        }
        if (!reply.has_value()) break;
        const api::response resp = decode_one(*reply);
        if (const auto* e = std::get_if<api::error_response>(&resp)) {
            saw_error = true;
            EXPECT_EQ(e->code, api::error_code::oversized);
        }
    }
    EXPECT_TRUE(saw_error);
}

TEST(TcpServer, ShardPathOutsideEveryMountedStoreIsRefused) {
    // A valid shard the server could read — but no store mounts its
    // directory, so a network client must not get it served.
    const std::string dir =
        (std::filesystem::temp_directory_path() / "fisone_test_net_unmounted").string();
    std::filesystem::remove_all(dir);
    data::corpus one;
    one.name = "net-unmounted";
    one.buildings.push_back(tiny_building(0));
    static_cast<void>(data::write_corpus_store(one, dir, 1));
    const service::shard_ref ref = service::make_shard_ref(data::corpus_store::open(dir), 0);

    test_front tf;
    net::frame_conn conn("127.0.0.1", tf.port());
    conn.send(api::encode(api::request(api::identify_shard_request{31, ref})));
    const std::optional<std::string> reply = conn.read_frame();
    ASSERT_TRUE(reply.has_value());
    const api::response resp = decode_one(*reply);
    const auto* e = std::get_if<api::error_response>(&resp);
    ASSERT_NE(e, nullptr) << "the unmounted shard was served";
    EXPECT_EQ(e->correlation_id, 31u);
    EXPECT_EQ(e->code, api::error_code::bad_request);

    conn.send(api::encode(api::request(api::get_stats_request{32})));
    const std::optional<std::string> stats_reply = conn.read_frame();
    ASSERT_TRUE(stats_reply.has_value());
    const api::response stats_resp = decode_one(*stats_reply);
    const auto* s = std::get_if<api::stats_response>(&stats_resp);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->stats.jobs_submitted, 0u);
    conn.close();
    std::filesystem::remove_all(dir);
}

TEST(TcpServer, SlowReaderIsShedNotBuffered) {
    net::tcp_server_config cfg;
    cfg.max_write_buffer = 512;  // far below one building_response frame
    // Paused until all four requests are admitted: otherwise the first
    // answer can overflow and evict the connection before the loop has
    // read the later frames, which are then never admitted.
    test_front tf(cfg, /*paused=*/true);
    net::frame_conn slow("127.0.0.1", tf.port());
    for (std::size_t j = 0; j < 4; ++j) slow.send(identify_frame(j + 1, j, j % 2));
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (tf.front().stats().requests_admitted < 4 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(tf.front().stats().requests_admitted, 4u);
    tf.fleet().resume();
    // Never read: the first response overflows the bound and the
    // connection is evicted (poll the counter; eviction happens on the
    // loop thread).
    while (tf.front().stats().connections_closed_slow == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GE(tf.front().stats().connections_closed_slow, 1u);

    // The admitted jobs still run to completion and are accounted — the
    // eviction drops frames, never bookkeeping.
    while (tf.front().stats().requests_completed < 4 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const net::tcp_server_stats s = tf.front().stats();
    EXPECT_EQ(s.requests_completed, 4u);
    EXPECT_GE(s.responses_dropped, 1u);
    EXPECT_EQ(s.requests_in_flight, 0u);

    // And the server keeps serving: the metrics probe (which always fits
    // its page regardless of the write bound) reports the eviction.
    net::socket_fd probe = net::connect_tcp("127.0.0.1", tf.port());
    net::send_all(probe.get(), "GET /metrics HTTP/1.0\r\n\r\n");
    const std::string page = slurp(probe.get());
    EXPECT_NE(page.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(page.find("fisone_net_connections_closed_slow_total 1"), std::string::npos);
}

// --- correlation-id isolation ------------------------------------------------

TEST(TcpServer, CollidingCorrelationIdsStayPerConnection) {
    constexpr std::size_t k_conns = 4;
    test_front tf;
    std::vector<std::string> names(k_conns);
    std::vector<std::uint64_t> corrs(k_conns, 0);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < k_conns; ++c) {
        threads.emplace_back([&, c] {
            net::frame_conn conn("127.0.0.1", tf.port());
            // Every connection uses correlation id 1 — the collision
            // per-connection sessions keep apart — but pins its own corpus
            // index.
            conn.send(identify_frame(1, c, c));
            conn.shutdown_write();
            const std::optional<std::string> reply = conn.read_frame();
            if (!reply.has_value()) return;
            const api::decode_result<api::response> r = api::decode_response(*reply);
            if (!r.ok()) return;
            if (const auto* b = std::get_if<api::building_response>(&*r.value)) {
                corrs[c] = b->correlation_id;
                names[c] = b->report.name;
            }
        });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t c = 0; c < k_conns; ++c) {
        EXPECT_EQ(corrs[c], 1u) << "connection " << c;
        EXPECT_EQ(names[c], "net-" + std::to_string(c)) << "connection " << c;
    }
}

TEST(TcpServer, CancelUnknownTargetIsNotAccepted) {
    test_front tf;
    net::frame_conn conn("127.0.0.1", tf.port());
    conn.send(api::encode(api::request(api::cancel_job_request{5, 4242})));
    const std::optional<std::string> reply = conn.read_frame();
    ASSERT_TRUE(reply.has_value());
    const api::response resp = decode_one(*reply);
    const auto* c = std::get_if<api::cancel_response>(&resp);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->correlation_id, 5u);
    EXPECT_EQ(c->target_correlation_id, 4242u);  // echoed in *client* id space
    EXPECT_FALSE(c->accepted);
}

/// Poll \p pred for up to 60 s: the front door updates its counters just
/// after it buffers the answer they describe.
template <typename Pred>
bool eventually(Pred pred) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
}

/// Request conservation: every admitted request retired, none in flight.
void expect_conserved(net::tcp_server& front) {
    EXPECT_TRUE(eventually([&front] {
        const net::tcp_server_stats s = front.stats();
        return s.requests_admitted == s.requests_completed && s.requests_in_flight == 0;
    }));
    const net::tcp_server_stats s = front.stats();
    EXPECT_EQ(s.requests_admitted, s.requests_completed);
    EXPECT_EQ(s.requests_in_flight, 0u);
}

TEST(TcpServer, PartialWritesOfCachedReadsStayWhole) {
    test_front tf;
    // Big enough answers (about 80 KB each) that the pipelined replies
    // outgrow the server's socket send buffer, even autotuned on loopback.
    sim::building_spec spec;
    spec.name = "net-big";
    spec.num_floors = 3;
    spec.samples_per_floor = 200;
    spec.aps_per_floor = 6;
    spec.seed = 1499;
    api::identify_building_request req;
    req.has_index = true;
    req.b = sim::generate_building(spec).building;
    const auto read_frame = [&req](std::uint64_t corr) {
        req.correlation_id = corr;
        return api::encode(api::request(req));
    };
    // Fill the cache once, on its own connection.
    std::string fill;
    {
        net::frame_conn conn("127.0.0.1", tf.port());
        conn.send(read_frame(1));
        const std::optional<std::string> reply = conn.read_frame();
        ASSERT_TRUE(reply.has_value());
        fill = *reply;
    }
    const api::response filled = decode_one(fill);
    const auto* fb = std::get_if<api::building_response>(&filled);
    ASSERT_NE(fb, nullptr);
    ASSERT_TRUE(fb->report.ok) << fb->report.error;

    // A client with a tiny receive window pipelines cached reads on one
    // connection, then reads the replies back a few bytes at a time: the
    // server's gathered writes stall and resume mid-segment, mid-frame.
    net::socket_fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    ASSERT_TRUE(fd.valid());
    const int rcvbuf = 2048;
    ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf), 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(tf.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    constexpr std::uint64_t k_reads = 48;
    std::string batch;
    for (std::uint64_t j = 0; j < k_reads; ++j) batch += read_frame(100 + j);
    net::send_all(fd.get(), batch);
    ::shutdown(fd.get(), SHUT_WR);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let the queue back up

    api::frame_splitter splitter;
    std::vector<std::uint64_t> ids;
    char chunk[4093];
    const std::size_t steps[] = {7, 61, 509, 4093};  // odd sizes split frames anywhere
    for (std::size_t r = 0;; ++r) {
        const ssize_t n = ::recv(fd.get(), chunk, steps[r % 4], 0);
        ASSERT_GE(n, 0) << std::strerror(errno);
        if (n == 0) break;
        splitter.append(std::string_view(chunk, static_cast<std::size_t>(n)));
        while (const std::optional<std::string> frame = splitter.next()) {
            const api::response resp = decode_one(*frame);
            const auto* b = std::get_if<api::building_response>(&resp);
            ASSERT_NE(b, nullptr);
            ids.push_back(b->correlation_id);
            // Bit for bit the fill's frame, once the per-answer id and
            // probe time are set back to the fill's.
            api::building_response same = *b;
            same.correlation_id = fb->correlation_id;
            same.report.seconds = fb->report.seconds;
            EXPECT_EQ(api::encode(api::response(same)), fill) << "reply " << b->correlation_id;
        }
    }
    EXPECT_TRUE(splitter.at_boundary());
    ASSERT_EQ(ids.size(), k_reads);
    std::sort(ids.begin(), ids.end());
    for (std::uint64_t j = 0; j < k_reads; ++j) EXPECT_EQ(ids[j], 100 + j);
    EXPECT_EQ(tf.fleet().backend(0).cache_stats().hits, k_reads);
    expect_conserved(tf.front());
}

TEST(TcpServer, CachedReadTailsCountAgainstTheWriteBound) {
    net::tcp_server_config cfg;
    cfg.max_write_buffer = 512;  // holds a cache hit's head, not its tail
    test_front tf(cfg);
    // The fill's fresh answer overflows the bound too, but the cache is
    // filled before the answer is queued.
    net::frame_conn fill("127.0.0.1", tf.port());
    fill.send(identify_frame(1, 0, 0));
    ASSERT_TRUE(eventually([&tf] { return tf.front().stats().connections_closed_slow == 1; }));
    ASSERT_EQ(tf.fleet().backend(0).cache_stats().entries, 1u);

    // A hit queues a small head plus the shared tail; the tail counts.
    net::frame_conn read("127.0.0.1", tf.port());
    read.send(identify_frame(2, 0, 0));
    EXPECT_TRUE(eventually([&tf] { return tf.front().stats().connections_closed_slow == 2; }));
    EXPECT_EQ(tf.fleet().backend(0).cache_stats().hits, 1u);
    expect_conserved(tf.front());
}

TEST(TcpServer, LiveCancelTargetsTheClientsOwnId) {
    test_front tf(net::tcp_server_config{}, /*paused=*/true);  // the job stays queued
    net::frame_conn conn("127.0.0.1", tf.port());
    conn.send(identify_frame(7, 0, 0));
    conn.send(api::encode(api::request(api::cancel_job_request{8, 7})));
    // The cancel's answer and the cancelled request's one terminal frame
    // may arrive in either order.
    std::optional<api::cancel_response> cancel;
    std::vector<api::response> terminal;
    while (!cancel || terminal.empty()) {
        const std::optional<std::string> reply = conn.read_frame();
        ASSERT_TRUE(reply.has_value());
        const api::response resp = decode_one(*reply);
        if (const auto* c = std::get_if<api::cancel_response>(&resp))
            cancel = *c;
        else
            terminal.push_back(resp);
        if (cancel) tf.fleet().resume();
    }
    EXPECT_EQ(cancel->correlation_id, 8u);
    EXPECT_EQ(cancel->target_correlation_id, 7u);
    EXPECT_TRUE(cancel->accepted);
    ASSERT_EQ(terminal.size(), 1u);
    EXPECT_TRUE(std::holds_alternative<api::building_response>(terminal[0]) ||
                std::holds_alternative<api::error_response>(terminal[0]));
    EXPECT_EQ(api::correlation_id(terminal[0]), 7u);
    conn.shutdown_write();
    EXPECT_FALSE(conn.read_frame().has_value());
    expect_conserved(tf.front());
    EXPECT_EQ(tf.front().stats().requests_admitted, 1u);
}

TEST(TcpServer, DuplicateLiveIdIsRefusedBeforeAdmission) {
    test_front tf(net::tcp_server_config{}, /*paused=*/true);  // the first stays live
    net::frame_conn conn("127.0.0.1", tf.port());
    conn.send(identify_frame(3, 0, 0));
    conn.send(identify_frame(3, 1, 1));  // same id, first still in flight
    const std::optional<std::string> reply = conn.read_frame();
    ASSERT_TRUE(reply.has_value());
    const api::response resp = decode_one(*reply);
    const auto* e = std::get_if<api::error_response>(&resp);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->correlation_id, 3u);
    EXPECT_EQ(e->code, api::error_code::bad_request);
    const net::tcp_server_stats s = tf.front().stats();
    EXPECT_EQ(s.protocol_errors, 1u);
    EXPECT_EQ(s.requests_admitted, 1u);

    // The first request still completes, under the same id.
    tf.fleet().resume();
    conn.shutdown_write();
    const std::optional<std::string> last = conn.read_frame();
    ASSERT_TRUE(last.has_value());
    const api::response done = decode_one(*last);
    const auto* b = std::get_if<api::building_response>(&done);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->correlation_id, 3u);
    EXPECT_EQ(b->report.name, "net-0");
    EXPECT_TRUE(b->report.ok) << b->report.error;
    EXPECT_FALSE(conn.read_frame().has_value());
    expect_conserved(tf.front());
    EXPECT_EQ(tf.front().stats().requests_admitted, 1u);
}

TEST(TcpServer, ShardResultsCarryTheClientIdAndRetireOneAdmission) {
    const std::string dir =
        (std::filesystem::temp_directory_path() / "fisone_test_net_shard").string();
    std::filesystem::remove_all(dir);
    constexpr std::size_t n = 3;
    data::corpus corpus;
    corpus.name = "net-shard";
    for (std::size_t i = 0; i < n; ++i) corpus.buildings.push_back(tiny_building(i));
    static_cast<void>(data::write_corpus_store(corpus, dir, n));  // one shard of n
    const service::shard_ref ref = service::make_shard_ref(data::corpus_store::open(dir), 0);
    ASSERT_EQ(ref.num_buildings, n);
    {
        federation::federation_config fcfg;
        fcfg.service = service::quick_profile(11, 1);
        fcfg.num_backends = 2;
        fcfg.store_dirs = {dir};
        federation::federated_server fed(fcfg);
        net::tcp_server front(fed);
        std::thread loop([&front] { front.run(); });

        net::frame_conn conn("127.0.0.1", front.port());
        conn.send(api::encode(api::request(api::identify_shard_request{5, ref})));
        conn.shutdown_write();
        std::vector<std::string> names;
        while (const std::optional<std::string> reply = conn.read_frame()) {
            const api::response resp = decode_one(*reply);
            const auto* b = std::get_if<api::building_response>(&resp);
            ASSERT_NE(b, nullptr);
            EXPECT_EQ(b->correlation_id, 5u);
            EXPECT_TRUE(b->report.ok) << b->report.error;
            names.push_back(b->report.name);
        }
        EXPECT_EQ(names.size(), n);
        expect_conserved(front);
        EXPECT_EQ(front.stats().requests_admitted, 1u);
        front.drain();
        loop.join();
    }
    std::filesystem::remove_all(dir);
}

TEST(TcpServer, FlushOnIdleConnectionAnswersImmediately) {
    test_front tf;
    net::frame_conn conn("127.0.0.1", tf.port());
    conn.send(api::encode(api::request(api::flush_request{77})));
    const std::optional<std::string> reply = conn.read_frame();
    ASSERT_TRUE(reply.has_value());
    const api::response resp = decode_one(*reply);
    const auto* f = std::get_if<api::flush_response>(&resp);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->correlation_id, 77u);
}

// --- admission control and drain ---------------------------------------------

TEST(TcpServer, OverloadShedsWithTypedError) {
    net::tcp_server_config cfg;
    cfg.max_inflight_requests = 1;
    test_front tf(cfg, /*paused=*/true);  // nothing completes until resume
    net::frame_conn conn("127.0.0.1", tf.port());
    for (std::size_t j = 0; j < 4; ++j) conn.send(identify_frame(j + 1, j, j % 2));
    conn.shutdown_write();
    // 3 sheds arrive while the one admitted request is parked at the gate.
    std::size_t shed = 0;
    for (std::size_t got = 0; got < 3; ++got) {
        const std::optional<std::string> reply = conn.read_frame();
        ASSERT_TRUE(reply.has_value());
        const api::response resp = decode_one(*reply);
        const auto* e = std::get_if<api::error_response>(&resp);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->code, api::error_code::overloaded);
        ++shed;
    }
    tf.fleet().resume();
    const std::optional<std::string> reply = conn.read_frame();
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(std::holds_alternative<api::building_response>(decode_one(*reply)));
    EXPECT_FALSE(conn.read_frame().has_value());  // all accounted, clean EOF
    EXPECT_EQ(shed, 3u);
    const net::tcp_server_stats s = tf.front().stats();
    EXPECT_EQ(s.requests_shed_overload, 3u);
    EXPECT_EQ(s.requests_admitted, 1u);
}

TEST(TcpServer, DrainFinishesInFlightAndShedsNewWork) {
    test_front tf(net::tcp_server_config{}, /*paused=*/true);
    net::frame_conn conn("127.0.0.1", tf.port());
    conn.send(identify_frame(1, 0, 0));  // admitted, parked at the gate
    // Wait until the request is admitted: a drain that lands first would
    // close the (still idle) connection before reading it.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (tf.front().stats().requests_admitted < 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(tf.front().stats().requests_admitted, 1u);
    tf.front().drain();
    conn.send(identify_frame(2, 1, 1));  // arrives mid-drain: typed shed
    conn.shutdown_write();
    tf.fleet().resume();

    bool saw_draining_shed = false, saw_result = false;
    while (std::optional<std::string> reply = conn.read_frame()) {
        const api::response resp = decode_one(*reply);
        if (const auto* e = std::get_if<api::error_response>(&resp)) {
            EXPECT_EQ(e->code, api::error_code::draining);
            EXPECT_EQ(e->correlation_id, 2u);
            saw_draining_shed = true;
        } else if (const auto* b = std::get_if<api::building_response>(&resp)) {
            EXPECT_EQ(b->correlation_id, 1u);
            saw_result = true;
        }
    }
    EXPECT_TRUE(saw_draining_shed);
    EXPECT_TRUE(saw_result);  // drain finished the in-flight request first
}

// --- metrics probe -----------------------------------------------------------

TEST(TcpServer, MetricsProbeSpeaksHttpAndRawText) {
    test_front tf;
    {
        net::frame_conn warm("127.0.0.1", tf.port());
        warm.send(identify_frame(1, 0, 0));
        warm.shutdown_write();
        while (warm.read_frame().has_value()) {}
    }
    {
        net::socket_fd fd = net::connect_tcp("127.0.0.1", tf.port());
        net::send_all(fd.get(), "GET /metrics HTTP/1.0\r\n\r\n");
        const std::string page = slurp(fd.get());
        EXPECT_NE(page.find("HTTP/1.0 200 OK"), std::string::npos);
        EXPECT_NE(page.find("fisone_net_connections_accepted_total"), std::string::npos);
        EXPECT_NE(page.find("fisone_net_requests_admitted_total 1"), std::string::npos);
        EXPECT_NE(page.find("fisone_net_requests_shed_total{reason=\"overload\"}"),
                  std::string::npos);
        EXPECT_NE(page.find("fisone_service_jobs_submitted_total"), std::string::npos);
        EXPECT_NE(page.find("fisone_net_request_latency_seconds{quantile=\"0.99\"}"),
                  std::string::npos);
        for (std::size_t k = 0; k < tf.fleet().num_backends(); ++k)  // a fault-free fleet
            EXPECT_NE(page.find("fisone_backend_up{backend=\"" + std::to_string(k) + "\"} 1"),
                      std::string::npos);
    }
    {
        net::socket_fd fd = net::connect_tcp("127.0.0.1", tf.port());
        net::send_all(fd.get(), "METRICS\n");
        const std::string page = slurp(fd.get());
        EXPECT_EQ(page.rfind("# HELP", 0), 0u);  // raw page, no HTTP envelope
        EXPECT_NE(page.find("fisone_net_connections_open"), std::string::npos);
    }
    {
        net::socket_fd fd = net::connect_tcp("127.0.0.1", tf.port());
        net::send_all(fd.get(), "GET /nope HTTP/1.0\r\n\r\n");
        const std::string page = slurp(fd.get());
        EXPECT_NE(page.find("404 Not Found"), std::string::npos);
    }
}

// --- tracing -----------------------------------------------------------------

/// Enables the span recorder for the test body, restores off+empty after.
class TcpServerTracing : public ::testing::Test {
protected:
    void SetUp() override {
        obs::set_tracing_enabled(false);
        obs::reset();
        obs::set_tracing_enabled(true);
    }
    void TearDown() override {
        obs::set_tracing_enabled(false);
        obs::reset();
    }
};

std::vector<std::string> span_names(const std::vector<obs::span_record>& spans) {
    std::vector<std::string> names;
    names.reserve(spans.size());
    for (const obs::span_record& s : spans) names.emplace_back(s.name ? s.name : "?");
    return names;
}

bool has_name(const std::vector<std::string>& names, const char* want) {
    for (const std::string& n : names)
        if (n == want) return true;
    return false;
}

/// The tentpole acceptance check: one request through a federated fleet
/// (2 stores × 2 backends) behind the TCP front door produces one
/// parent-linked span tree covering every instrumented layer.
TEST_F(TcpServerTracing, FederatedRequestProducesOneParentLinkedTrace) {
    const std::string base =
        (std::filesystem::temp_directory_path() / "fisone_test_net_trace").string();
    std::filesystem::remove_all(base);
    std::vector<std::string> dirs;
    for (std::size_t s = 0; s < 2; ++s) {
        data::corpus fleet;
        fleet.name = "trace-store-" + std::to_string(s);
        fleet.buildings.push_back(tiny_building(s));
        const std::string dir = base + "/store" + std::to_string(s);
        static_cast<void>(data::write_corpus_store(fleet, dir, 1));
        dirs.push_back(dir);
    }

    {
        federation::federation_config fcfg;
        fcfg.service = service::quick_profile(11, 1);
        fcfg.num_backends = 2;
        fcfg.store_dirs = dirs;
        federation::federated_server fed(fcfg);
        net::tcp_server front(fed);
        std::thread loop([&front] { front.run(); });

        net::frame_conn conn("127.0.0.1", front.port());
        conn.send(identify_frame(9, 0, 0));
        conn.shutdown_write();
        const std::optional<std::string> reply = conn.read_frame();
        ASSERT_TRUE(reply.has_value());
        const api::response resp = decode_one(*reply);
        const auto* b = std::get_if<api::building_response>(&resp);
        ASSERT_NE(b, nullptr);
        EXPECT_TRUE(b->report.ok) << b->report.error;
        conn.close();
        front.drain();
        loop.join();
    }  // destroying the fleet joins its workers: every span has landed

    // Find the request's root span and pull its whole tree.
    const std::vector<obs::span_record> all = obs::snapshot();
    const obs::span_record* root = nullptr;
    for (const obs::span_record& s : all) {
        if (s.name != nullptr && std::string("net.request") == s.name) root = &s;
    }
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->parent_id, 0u);
    const std::vector<obs::span_record> trace = obs::spans_for_trace(root->trace_id);
    const std::vector<std::string> names = span_names(trace);

    // Every instrumented layer is present in this one trace: transport,
    // federation routing, API session, service queue/execute, and each
    // pipeline stage.
    for (const char* want :
         {"net.request", "net.dispatch", "federation.dispatch", "federation.route",
          "api.identify", "service.queue_wait", "service.execute",
          "pipeline.graph_build", "pipeline.gnn_embed", "pipeline.cluster",
          "pipeline.index", "service.report"}) {
        EXPECT_TRUE(has_name(names, want)) << "trace missing span " << want;
    }

    // And it is a single well-formed tree: exactly one root, every other
    // span's parent id resolves within the trace.
    std::size_t roots = 0;
    for (const obs::span_record& s : trace) roots += s.parent_id == 0 ? 1 : 0;
    EXPECT_EQ(roots, 1u);
    for (const obs::span_record& s : trace) {
        if (s.parent_id == 0) continue;
        bool linked = false;
        for (const obs::span_record& p : trace) linked |= p.span_id == s.parent_id;
        EXPECT_TRUE(linked) << "span " << (s.name ? s.name : "?")
                            << " has a dangling parent id";
    }
    std::filesystem::remove_all(base);
}

/// Colliding client correlation ids (both connections use id 1) go through
/// per-connection sessions — each request must still get its own complete,
/// distinct trace.
TEST_F(TcpServerTracing, CollidingCorrelationIdsGetDistinctTraces) {
    {
        test_front tf;
        for (std::size_t c = 0; c < 2; ++c) {
            net::frame_conn conn("127.0.0.1", tf.port());
            conn.send(identify_frame(1, c, c));
            conn.shutdown_write();
            const std::optional<std::string> reply = conn.read_frame();
            ASSERT_TRUE(reply.has_value());
            const api::response resp = decode_one(*reply);
            const auto* b = std::get_if<api::building_response>(&resp);
            ASSERT_NE(b, nullptr);
            EXPECT_EQ(b->correlation_id, 1u);  // client id space restored
        }
    }  // server teardown joins the workers: every span has landed

    const std::vector<obs::span_record> all = obs::snapshot();
    std::vector<std::uint64_t> request_traces;
    for (const obs::span_record& s : all) {
        if (s.name != nullptr && std::string("net.request") == s.name)
            request_traces.push_back(s.trace_id);
    }
    ASSERT_EQ(request_traces.size(), 2u);
    EXPECT_NE(request_traces[0], request_traces[1]);
    for (const std::uint64_t id : request_traces) {
        const std::vector<std::string> names = span_names(obs::spans_for_trace(id));
        EXPECT_TRUE(has_name(names, "api.identify")) << "trace 0x" << std::hex << id;
        EXPECT_TRUE(has_name(names, "service.execute")) << "trace 0x" << std::hex << id;
    }
}

TEST_F(TcpServerTracing, DumpTraceProbeSpeaksHttpAndRawText) {
    test_front tf;
    {
        net::frame_conn warm("127.0.0.1", tf.port());
        warm.send(identify_frame(1, 0, 0));
        warm.shutdown_write();
        while (warm.read_frame().has_value()) {}
    }
    {
        net::socket_fd fd = net::connect_tcp("127.0.0.1", tf.port());
        net::send_all(fd.get(), "GET /dump_trace HTTP/1.0\r\n\r\n");
        const std::string page = slurp(fd.get());
        EXPECT_NE(page.find("HTTP/1.0 200 OK"), std::string::npos);
        EXPECT_NE(page.find("Content-Type: application/json"), std::string::npos);
        EXPECT_NE(page.find("\"traceFormatVersion\":\"fisone-trace/v1\""),
                  std::string::npos);
        EXPECT_NE(page.find("\"name\":\"net.request\""), std::string::npos);
    }
    {
        net::socket_fd fd = net::connect_tcp("127.0.0.1", tf.port());
        net::send_all(fd.get(), "DUMP_TRACE\n");
        const std::string page = slurp(fd.get());
        EXPECT_EQ(page.rfind("{\"traceFormatVersion\"", 0), 0u);  // raw JSON
    }
}

TEST_F(TcpServerTracing, MetricsExposeBuildInfoUptimeBackendCachesAndStages) {
    test_front tf;
    {
        net::frame_conn warm("127.0.0.1", tf.port());
        warm.send(identify_frame(1, 0, 0));
        warm.shutdown_write();
        while (warm.read_frame().has_value()) {}
    }
    // Wait out the worker's span teardown so the stage table has the full
    // ladder before the scrape (wait_all returns after the job body exits).
    tf.fleet().backend(0).backing_service().wait_all();
    net::socket_fd fd = net::connect_tcp("127.0.0.1", tf.port());
    net::send_all(fd.get(), "GET /metrics HTTP/1.0\r\n\r\n");
    const std::string page = slurp(fd.get());
    EXPECT_NE(page.find("fisone_build_info{version=\""), std::string::npos);
    EXPECT_NE(page.find("fisone_uptime_seconds"), std::string::npos);
    EXPECT_NE(page.find("fisone_cache_evictions_total"), std::string::npos);
    EXPECT_NE(page.find("fisone_backend_cache_hits_total{backend=\"0\"}"),
              std::string::npos);
    EXPECT_NE(page.find("fisone_backend_cache_entries{backend=\"0\"}"),
              std::string::npos);
    EXPECT_NE(page.find("fisone_stage_seconds{stage=\"api.identify\",quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(page.find("fisone_stage_seconds{stage=\"pipeline.gnn_embed\","),
              std::string::npos);
    EXPECT_NE(page.find("fisone_stage_seconds_count{stage=\"service.execute\"}"),
              std::string::npos);
}

TEST_F(TcpServerTracing, SlowRequestLogCarriesSpanBreakdown) {
    std::mutex log_m;
    std::vector<std::string> lines;
    net::tcp_server_config cfg;
    cfg.slow_request_seconds = 1e-9;  // everything is slow
    cfg.slow_log = [&](const std::string& line) {
        const std::lock_guard<std::mutex> lock(log_m);
        lines.push_back(line);
    };
    test_front tf(cfg);
    {
        net::frame_conn conn("127.0.0.1", tf.port());
        conn.send(identify_frame(42, 0, 0));
        conn.shutdown_write();
        while (conn.read_frame().has_value()) {}
    }
    const std::lock_guard<std::mutex> lock(log_m);
    ASSERT_EQ(lines.size(), 1u);
    const std::string& line = lines[0];
    EXPECT_EQ(line.rfind("{\"slow_request\":{", 0), 0u);
    EXPECT_NE(line.find("\"correlation_id\":42"), std::string::npos);
    EXPECT_NE(line.find("\"seconds\":"), std::string::npos);
    EXPECT_NE(line.find("\"trace_id\":\"0x"), std::string::npos);
    EXPECT_NE(line.find("\"spans\":["), std::string::npos);
    // The breakdown carries every span closed by completion time; the
    // still-open service.execute cannot be in it, the pipeline stages are.
    EXPECT_NE(line.find("\"name\":\"pipeline.gnn_embed\""), std::string::npos);
}

// --- federated backend -------------------------------------------------------

TEST(TcpServer, FrontsAFederatedFleet) {
    const std::string dir =
        (std::filesystem::temp_directory_path() / "fisone_test_net_fed").string();
    std::filesystem::remove_all(dir);
    data::corpus fleet;
    fleet.name = "net-fed";
    for (std::size_t i = 0; i < 2; ++i) fleet.buildings.push_back(tiny_building(i));
    static_cast<void>(data::write_corpus_store(fleet, dir, 1));

    federation::federation_config fcfg;
    fcfg.service = service::quick_profile(11, 1);
    fcfg.num_backends = 2;
    fcfg.store_dirs = {dir};
    federation::federated_server fed(fcfg);
    net::tcp_server front(fed);
    std::thread loop([&front] { front.run(); });

    net::frame_conn conn("127.0.0.1", front.port());
    conn.send(api::encode(api::request(api::get_stats_request{6})));
    const std::optional<std::string> reply = conn.read_frame();
    ASSERT_TRUE(reply.has_value());
    const api::response resp = decode_one(*reply);
    const auto* s = std::get_if<api::stats_response>(&resp);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->correlation_id, 6u);
    conn.close();

    front.drain();
    loop.join();
    std::filesystem::remove_all(dir);
}

TEST(TcpServer, DrainRacesCircuitBrokenBackendWithoutHanging) {
    // A protected fleet whose backend 0 always fails transiently: in-flight
    // requests keep retrying/failing over while the front door drains (the
    // path serve_tcp's SIGTERM waiter takes). Drain must still account for
    // every admitted request — answered ok after failover, never hung —
    // with backend 0's breaker tripping mid-drain. Runs under the TSan CI
    // tier via the test_net filter.
    federation::federation_config fcfg;
    fcfg.service = service::quick_profile(11, 1);
    fcfg.num_backends = 2;
    fcfg.policy = federation::routing_policy::round_robin;
    fcfg.fault_plans = service::parse_fault_plans("0:fail_every=1", 2);
    fcfg.fault_tolerance.breaker_cooldown = std::chrono::milliseconds(60000);
    federation::federated_server fed(fcfg);
    net::tcp_server front(fed);
    std::thread loop([&front] { front.run(); });

    net::frame_conn conn("127.0.0.1", front.port());
    constexpr std::size_t n = 6;
    for (std::size_t i = 0; i < n; ++i) conn.send(identify_frame(i + 1, i, i));
    while (front.stats().requests_admitted < n)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    front.drain();  // races the retry/failover machinery

    std::size_t ok = 0, errors = 0;
    while (ok + errors < n) {
        const std::optional<std::string> reply = conn.read_frame();
        if (!reply) break;  // server closed before answering everything
        const api::response resp = decode_one(*reply);
        if (std::holds_alternative<api::building_response>(resp))
            ++ok;
        else if (std::holds_alternative<api::error_response>(resp))
            ++errors;
    }
    EXPECT_EQ(ok, n) << errors << " typed errors";  // failover rescued every request
    loop.join();

    const federation::health_snapshot health = fed.health();
    EXPECT_GE(health.retries, 1u);  // backend 0 sent every request it saw back out
    EXPECT_FALSE(health.backend_up[0]);

    // The scrapeable page carries the new federation families.
    const std::string page = front.metrics_text();
    EXPECT_NE(page.find("fisone_federation_retries_total"), std::string::npos);
    EXPECT_NE(page.find("fisone_federation_failovers_total"), std::string::npos);
    EXPECT_NE(page.find("fisone_backend_up{backend=\"0\"} 0"), std::string::npos);
    EXPECT_NE(page.find("fisone_backend_up{backend=\"1\"} 1"), std::string::npos);
}

// --- live telemetry streaming ------------------------------------------------

TEST(TcpServer, SubscribeStatsStreamsWindowedTelemetry) {
    net::tcp_server_config cfg;
    cfg.telemetry_window_ms = 50;
    test_front tf(std::move(cfg));

    net::frame_conn conn("127.0.0.1", tf.port());
    api::subscribe_stats_request sub;
    sub.correlation_id = 42;
    sub.interval_ms = 0;  // every window
    conn.send(api::encode(api::request(sub)));

    // The subscription is acked before any push.
    std::optional<std::string> frame = conn.read_frame();
    ASSERT_TRUE(frame.has_value());
    const api::response ack = decode_one(*frame);
    ASSERT_TRUE(std::holds_alternative<api::watch_ack_response>(ack));
    EXPECT_EQ(std::get<api::watch_ack_response>(ack).correlation_id, 42u);
    EXPECT_TRUE(std::get<api::watch_ack_response>(ack).active);

    // One identify on a second connection must land in some window.
    {
        net::frame_conn work("127.0.0.1", tf.port());
        work.send(identify_frame(1, 0, 0));
        work.shutdown_write();
        while (work.read_frame()) {
        }
    }

    // Updates stream in with strictly advancing window sequence numbers;
    // keep reading until the identify's admission and latency show up.
    std::uint64_t prev_seq = 0;
    std::uint64_t admitted = 0;
    std::uint64_t latency_count = 0;
    double latency_sum = 0.0;
    bool seen = false;
    for (int i = 0; i < 200 && !seen; ++i) {
        frame = conn.read_frame();
        ASSERT_TRUE(frame.has_value());
        const api::response r = decode_one(*frame);
        ASSERT_TRUE(std::holds_alternative<api::stats_update_response>(r));
        const auto& u = std::get<api::stats_update_response>(r);
        EXPECT_EQ(u.correlation_id, 42u);
        EXPECT_GT(u.window_seq, prev_seq);
        prev_seq = u.window_seq;
        EXPECT_GT(u.window_seconds, 0.0);
        admitted += u.admitted;
        latency_count += u.latency_count;
        latency_sum += u.latency_sum;
        seen = admitted >= 1 && latency_count >= 1;
    }
    EXPECT_TRUE(seen) << "identify never appeared in any streamed window";
    EXPECT_GT(latency_sum, 0.0);

    // Unsubscribe is acked inactive; the ack may trail in-flight updates.
    api::subscribe_stats_request unsub;
    unsub.correlation_id = 43;
    unsub.subscribe = false;
    conn.send(api::encode(api::request(unsub)));
    bool acked = false;
    for (int i = 0; i < 200 && !acked; ++i) {
        frame = conn.read_frame();
        ASSERT_TRUE(frame.has_value());
        const api::response r = decode_one(*frame);
        if (const auto* a = std::get_if<api::watch_ack_response>(&r)) {
            EXPECT_EQ(a->correlation_id, 43u);
            EXPECT_FALSE(a->active);
            acked = true;
        }
    }
    EXPECT_TRUE(acked);

    const net::tcp_server_stats s = tf.front().stats();
    EXPECT_GT(s.stats_pushes_sent, 0u);
    EXPECT_GT(s.telemetry_ticks, 0u);
    EXPECT_EQ(s.stats_subscribers, 0u);  // lifecycle balanced after unsubscribe
    conn.shutdown_write();
}

TEST(TcpServer, TelemetryDisabledNeverTicksOrPushes) {
    net::tcp_server_config cfg;
    cfg.telemetry_window_ms = 0;  // epoll blocks indefinitely, as before
    test_front tf(std::move(cfg));

    net::frame_conn conn("127.0.0.1", tf.port());
    api::subscribe_stats_request sub;
    sub.correlation_id = 7;
    sub.interval_ms = 0;
    conn.send(api::encode(api::request(sub)));
    const std::optional<std::string> frame = conn.read_frame();
    ASSERT_TRUE(frame.has_value());
    ASSERT_TRUE(std::holds_alternative<api::watch_ack_response>(decode_one(*frame)));

    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    const net::tcp_server_stats s = tf.front().stats();
    EXPECT_EQ(s.telemetry_ticks, 0u);
    EXPECT_EQ(s.stats_pushes_sent, 0u);
    EXPECT_EQ(s.stats_subscribers, 1u);  // installed, just never fed
    conn.shutdown_write();
}

}  // namespace
