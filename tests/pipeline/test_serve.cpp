// Serve-layer tests: a real Server on an ephemeral port (or Unix socket)
// exercised through the real client Connection.  The soak test is the
// acceptance gate for admission control: many more clients than workers, a
// queue small enough to force shedding, and the invariant that every request
// gets exactly one response.
#include "pipeline/serve.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/client.h"

namespace netrev::pipeline::serve {
namespace {

using protocol::Op;
using protocol::Request;
using protocol::Response;
using protocol::Status;

// Owns a Server running on a background thread; drains it on destruction.
class RunningServer {
 public:
  explicit RunningServer(ServeOptions options) {
    options.executor.cache = &cache_;
    server_ = std::make_unique<Server>(std::move(options), &log_);
    server_->start();
    thread_ = std::thread([this] { exit_ = server_->run(); });
  }

  ~RunningServer() { drain(); }

  ExitCode drain() {
    server_->request_drain();
    if (thread_.joinable()) thread_.join();
    return exit_;
  }

  client::Endpoint endpoint() const {
    client::Endpoint endpoint;
    if (server_->port() != 0) {
      endpoint.host = "127.0.0.1";
      endpoint.port = server_->port();
    }
    return endpoint;
  }

  Server& server() { return *server_; }
  std::string log() const { return log_.str(); }

 private:
  ArtifactCache cache_;
  std::ostringstream log_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
  ExitCode exit_ = ExitCode::kOk;
};

Request make(Op op, const std::string& id, const std::string& design = "") {
  Request request;
  request.id = id;
  request.op = op;
  request.design = design;
  return request;
}

TEST(Serve, PingAndStatsRoundTripOverTcp) {
  RunningServer server({});
  client::Connection connection(server.endpoint());

  const Response ping = connection.round_trip(make(Op::kPing, "p1"));
  EXPECT_EQ(ping.id, "p1");
  EXPECT_EQ(ping.status, Status::kOk);
  EXPECT_NE(ping.result.find("\"protocol\":1"), std::string::npos);

  const Response stats = connection.round_trip(make(Op::kStats, "s1"));
  EXPECT_EQ(stats.status, Status::kOk);
  EXPECT_NE(stats.result.find("\"requests\":{"), std::string::npos);
}

TEST(Serve, ServesOverUnixSocket) {
  const auto dir =
      std::filesystem::temp_directory_path() / "netrev_serve_test";
  std::filesystem::create_directories(dir);
  ServeOptions options;
  options.unix_path = (dir / "serve.sock").string();
  RunningServer server(options);

  client::Endpoint endpoint;
  endpoint.unix_path = options.unix_path;
  client::Connection connection(endpoint);
  const Response ping = connection.round_trip(make(Op::kPing, "u1"));
  EXPECT_EQ(ping.status, Status::kOk);
}

TEST(Serve, ServerAssignsIdsWhenTheClientOmitsThem) {
  RunningServer server({});
  client::Connection connection(server.endpoint());
  const Response response = connection.round_trip(make(Op::kPing, ""));
  EXPECT_FALSE(response.id.empty());
  EXPECT_EQ(response.id[0], 's');
}

TEST(Serve, MalformedLineGetsBadRequestNotDisconnect) {
  RunningServer server({});
  client::Connection connection(server.endpoint());
  const std::string line = connection.round_trip_line("this is not json");
  EXPECT_NE(line.find("\"status\":\"bad_request\""), std::string::npos);
  // The connection stays usable afterwards.
  const Response ping = connection.round_trip(make(Op::kPing, "p1"));
  EXPECT_EQ(ping.status, Status::kOk);
}

TEST(Serve, IdentifyMatchesOneShotCliByteForByte) {
  RunningServer server({});
  client::Connection connection(server.endpoint());
  const Response response =
      connection.round_trip(make(Op::kIdentify, "r1", "b03s"),
                            std::chrono::milliseconds(60000));
  ASSERT_EQ(response.status, Status::kOk) << response.error;

  std::ostringstream out, err;
  ASSERT_EQ(cli::run_cli({"identify", "b03s", "--json"}, out, err), 0);
  EXPECT_EQ(response.result + "\n", out.str());
}

TEST(Serve, ZeroQueueShedsEveryRequestAsOverloaded) {
  ServeOptions options;
  options.max_queue = 0;
  RunningServer server(options);
  client::Connection connection(server.endpoint());
  const Response response = connection.round_trip(make(Op::kPing, "p1"));
  EXPECT_EQ(response.status, Status::kOverloaded);
  EXPECT_NE(response.error.find("admission queue full"), std::string::npos);
  EXPECT_EQ(response.id, "p1");
}

TEST(Serve, IdleConnectionsAreClosedAfterTheIdleTimeout) {
  ServeOptions options;
  options.idle_timeout = std::chrono::milliseconds(200);
  RunningServer server(options);
  client::Connection connection(server.endpoint());
  // No request: the server should close the socket, surfacing as a read
  // error on our side.
  EXPECT_THROW((void)connection.read_line(std::chrono::milliseconds(5000)),
               std::runtime_error);
}

TEST(Serve, DrainUnderLoadAnswersEveryAdmittedRequestExactlyOnce) {
  ServeOptions options;
  options.max_inflight = 2;
  options.max_queue = 64;
  options.drain_timeout = std::chrono::milliseconds(60000);
  RunningServer server(options);

  // Each client pipelines all its requests (unique ids), the main thread
  // requests drain once every line is on the wire, and then each client
  // collects its responses.  Workers answer out of order, so compare as
  // id sets: every request answered exactly once, nothing lost, nothing
  // duplicated.
  constexpr int kClients = 4;
  constexpr int kPerClient = 4;
  std::atomic<int> clients_done_sending{0};
  std::atomic<int> unexpected{0};
  std::atomic<int> responses{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        client::Connection connection(server.endpoint());
        std::set<std::string> expected;
        for (int i = 0; i < kPerClient; ++i) {
          const std::string id =
              "c" + std::to_string(c) + "-" + std::to_string(i);
          expected.insert(id);
          connection.send_all(
              protocol::render_request(make(Op::kIdentify, id, "b03s")) +
              "\n");
        }
        ++clients_done_sending;
        std::set<std::string> answered;
        for (int i = 0; i < kPerClient; ++i) {
          const std::string line =
              connection.read_line(std::chrono::milliseconds(120000));
          const protocol::ParsedResponse parsed =
              protocol::parse_response(line);
          if (!parsed.response) {
            ++unexpected;
            continue;
          }
          if (!answered.insert(parsed.response->id).second) ++unexpected;
          if (parsed.response->status != Status::kOk &&
              parsed.response->status != Status::kDegraded &&
              parsed.response->status != Status::kOverloaded &&
              parsed.response->status != Status::kCancelled)
            ++unexpected;
          ++responses;
        }
        if (answered != expected) ++unexpected;
      } catch (const std::exception&) {
        unexpected += kPerClient;
        ++clients_done_sending;  // never wedge the main thread
      }
    });
  }

  while (clients_done_sending.load() < kClients)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server.server().request_drain();
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(responses.load(), kClients * kPerClient);
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(server.drain(), ExitCode::kDrained);
}

// The send buffer a Unix-socket sender fills before send() blocks, from
// net.core.wmem_default (the Linux default when unreadable).
std::size_t default_send_buffer() {
  std::size_t bytes = 0;
  std::ifstream("/proc/sys/net/core/wmem_default") >> bytes;
  return bytes > 0 ? bytes : 212992;
}

// A client that pipelines requests and never reads the answers fills its
// socket buffers, so the thread answering it blocks in send().  The idle
// timeout bounds every send: the stall costs one timeout, after which the
// connection is shut down, other clients are served, and the drain ends.
TEST(Serve, StalledReaderCannotHoldTheDrain) {
  // Per-process directory: isolated repeat runs may overlap.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("netrev_serve_stall_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  ServeOptions options;
  options.unix_path = (dir / "serve.sock").string();
  options.max_inflight = 2;
  options.max_queue = 4096;
  options.idle_timeout = std::chrono::milliseconds(300);
  options.drain_timeout = std::chrono::milliseconds(60000);
  ArtifactCache cache;
  options.executor.cache = &cache;
  std::ostringstream log;
  Server server(options, &log);
  server.start();
  std::atomic<bool> finished{false};
  ExitCode exit = ExitCode::kOk;
  std::thread runner([&] {
    exit = server.run();
    finished = true;
  });

  client::Endpoint endpoint;
  endpoint.unix_path = options.unix_path;
  std::unique_ptr<client::Connection> stalled;
  bool other_served = false;
  const char* step = "probe";
  // Client failures must not throw past the running server thread.
  try {
    // One answered round trip warms the cache and sizes the burst: several
    // send buffers' worth of responses, none of which the client will read.
    const std::size_t response_bytes =
        client::Connection(endpoint)
            .round_trip_line(
                protocol::render_request(make(Op::kLift, "probe", "b03s")),
                std::chrono::seconds(20))
            .size();
    const std::size_t count = 4 * default_send_buffer() / response_bytes + 16;
    std::string burst;
    for (std::size_t i = 0; i < count; ++i)
      burst += protocol::render_request(
                   make(Op::kLift, "s" + std::to_string(i), "b03s")) +
               "\n";
    step = "burst";
    stalled = std::make_unique<client::Connection>(endpoint);
    stalled->send_all(burst);

    // The second client pipelines its requests too: it waits behind the
    // stall for longer than the idle timeout, which ends its reader (the
    // server still answers what it already read).
    step = "second client";
    client::Connection other(endpoint);
    other.send_all(
        protocol::render_request(make(Op::kPing, "p1")) + "\n" +
        protocol::render_request(make(Op::kLift, "l1", "b03s")) + "\n");
    std::set<std::string> answered;
    for (int i = 0; i < 2; ++i) {
      const protocol::ParsedResponse parsed = protocol::parse_response(
          other.read_line(std::chrono::seconds(20)));
      if (parsed.response && parsed.response->status == Status::kOk)
        answered.insert(parsed.response->id);
    }
    other_served = answered == std::set<std::string>{"p1", "l1"};
  } catch (const std::exception& error) {
    ADD_FAILURE() << step << ": " << error.what();
  }
  EXPECT_TRUE(other_served) << "a stalled reader starved another client";

  server.request_drain();
  const auto start = std::chrono::steady_clock::now();
  while (!finished.load() &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(20))
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const bool drained_in_time = finished.load();
  stalled.reset();  // unblocks a server that would otherwise wait forever
  runner.join();
  EXPECT_TRUE(drained_in_time) << "run() was still draining after 20s";
  EXPECT_EQ(exit, ExitCode::kDrained);
  EXPECT_NE(log.str().find("send timed out"), std::string::npos) << log.str();
}

// Acceptance soak: ≥32 clients against a 4-worker server with a queue small
// enough to force shedding.  Every request must get exactly one response
// with a sane status, and repeated designs must hit the warm cache.
TEST(Serve, SoakManyClientsAgainstSmallQueue) {
  ServeOptions options;
  options.max_inflight = 4;
  options.max_queue = 2;
  RunningServer server(options);

  constexpr int kClients = 32;
  constexpr int kPerClient = 3;
  std::atomic<int> responses{0};
  std::atomic<int> ok{0};
  std::atomic<int> shed{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        client::Connection connection(server.endpoint());
        for (int i = 0; i < kPerClient; ++i) {
          const std::string id =
              "c" + std::to_string(c) + "-" + std::to_string(i);
          const Response response =
              connection.round_trip(make(Op::kIdentify, id, "b03s"),
                                    std::chrono::milliseconds(120000));
          if (response.id != id) ++unexpected;
          switch (response.status) {
            case Status::kOk:
            case Status::kDegraded:
              ++ok;
              break;
            case Status::kOverloaded:
              ++shed;
              break;
            case Status::kDeadline:
              break;  // allowed under load, not expected without a ceiling
            default:
              ++unexpected;
          }
          ++responses;
        }
      } catch (const std::exception&) {
        unexpected += kPerClient;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Exactly one response per request, all with sane statuses.
  EXPECT_EQ(responses.load(), kClients * kPerClient);
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GT(ok.load(), 0);
  // 96 near-simultaneous arrivals against 4 workers + 2 queue slots must
  // shed; if this ever flakes the queue is not being bounded.
  EXPECT_GT(shed.load(), 0);

  // The repeated design is served from the shared cache across requests.
  client::Connection connection(server.endpoint());
  const Response stats = connection.round_trip(make(Op::kStats, "st"));
  ASSERT_EQ(stats.status, Status::kOk);
  const auto hits_at = stats.result.find("\"hits\":");
  ASSERT_NE(hits_at, std::string::npos);
  EXPECT_EQ(stats.result.find("\"hits\":0,"), std::string::npos)
      << stats.result;
}

TEST(Serve, StatsCountShedsAndBadRequests) {
  ServeOptions options;
  options.max_queue = 0;  // every admitted op sheds
  RunningServer server(options);
  client::Connection connection(server.endpoint());
  (void)connection.round_trip(make(Op::kPing, "p1"));
  (void)connection.round_trip_line("{broken");
  // A wire-level stats request would itself be shed (max_queue=0), so read
  // the counters off the executor directly.
  const std::string stats = server.server().executor().stats_json();
  EXPECT_NE(stats.find("\"overloaded\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"bad_request\":1"), std::string::npos) << stats;
}

TEST(Serve, DrainOnIdleServerExitsCleanly) {
  RunningServer server({});
  EXPECT_EQ(server.drain(), ExitCode::kDrained);
  EXPECT_NE(server.log().find("drained cleanly"), std::string::npos);
}

}  // namespace
}  // namespace netrev::pipeline::serve
