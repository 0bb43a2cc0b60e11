// Protocol fuzz suite: malformed, hostile, and oversized frames thrown at
// the Executor (parse layer) and at a live Server (socket layer).  The
// invariants under fire: the daemon never dies, and every delivered frame
// gets exactly one structured reply — bad_request for garbage, never a
// hang, never a disconnect without a reply.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/artifact_cache.h"
#include "pipeline/client.h"
#include "pipeline/journal.h"
#include "pipeline/protocol.h"
#include "pipeline/serve.h"

namespace netrev::pipeline {
namespace {

// Frames that must parse to "no request" with a one-line error.  Batch
// journal lines come back through the same reader, so none of them is a
// journal record either.
std::vector<std::string> malformed_frames() {
  return {
      "",
      "   ",
      "not json at all",
      "{",
      "}",
      "[]",
      "null",
      "42",
      "\"just a string\"",
      "{}",                                // no op
      "{\"op\":42}",                       // op is not a string
      "{\"op\":\"frobnicate\"}",           // unknown op
      "{\"op\":\"identify\"",              // truncated object
      "{\"op\":\"identify\",\"design\":",  // truncated value
      "{\"op\":\"identify\",\"design\":123}",
      std::string("{\"op\":\"ping\"\x00\"x\"}", 18),  // embedded NUL
      "{\"op\": \"ping\", \"op\": ",                  // duplicate, truncated
      "\xff\xfe\xfd binary garbage \x01\x02",
      "{\"op\":\"identify\",\"options\":\"not an object\"}",
      "{\"op\":\"identify\",\"options\":{\"depth\":\"deep\"}}",
  };
}

TEST(ProtocolFuzz, ParseRequestRejectsEveryMalformedFrameWithAnError) {
  for (const std::string& frame : malformed_frames()) {
    const protocol::ParsedRequest parsed = protocol::parse_request(frame);
    EXPECT_FALSE(parsed.request.has_value()) << frame;
    EXPECT_FALSE(parsed.error.empty()) << frame;
    JournalRecord record;
    EXPECT_FALSE(parse_journal_line(frame, record)) << frame;
  }
}

TEST(ProtocolFuzz, ParseRequestSurvivesDeeplyNestedAndHugeFrames) {
  // Nesting depth is recursion depth: a hostile frame of brackets must be
  // refused by the depth bound, not ride the stack into the ground.
  std::string deep = "{\"op\":";
  deep.append(100000, '[');
  const protocol::ParsedRequest rejected = protocol::parse_request(deep);
  EXPECT_FALSE(rejected.request.has_value());
  EXPECT_NE(rejected.error.find("nesting too deep"), std::string::npos);
  JournalRecord record;
  EXPECT_FALSE(parse_journal_line(deep, record));

  // A huge (but syntactically dull) line parses or rejects — no crash.
  std::string huge = "{\"op\":\"identify\",\"design\":\"";
  huge.append(1 << 20, 'a');
  huge += "\"}";
  const protocol::ParsedRequest parsed = protocol::parse_request(huge);
  if (parsed.request) {
    EXPECT_EQ(parsed.request->design.size(), 1u << 20);
  }
  EXPECT_FALSE(parse_journal_line(huge, record));
}

// Owns a Server on an ephemeral TCP port; drains on destruction.
class RunningServer {
 public:
  explicit RunningServer(serve::ServeOptions options = {}) {
    options.executor.cache = &cache_;
    server_ = std::make_unique<serve::Server>(std::move(options), &log_);
    server_->start();
    thread_ = std::thread([this] { (void)server_->run(); });
  }
  ~RunningServer() {
    server_->request_drain();
    if (thread_.joinable()) thread_.join();
  }

  client::Endpoint endpoint() const {
    client::Endpoint endpoint;
    endpoint.host = "127.0.0.1";
    endpoint.port = server_->port();
    return endpoint;
  }

 private:
  ArtifactCache cache_;
  std::ostringstream log_;
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
};

TEST(ProtocolFuzz, EveryMalformedFrameGetsExactlyOneBadRequestReply) {
  RunningServer server;
  client::Connection connection(server.endpoint());
  for (const std::string& frame : malformed_frames()) {
    // Newlines are the framing (a frame containing one would be two
    // frames), and a blank line is a keepalive the server skips silently.
    if (frame.empty() || frame.find('\n') != std::string::npos) continue;
    const std::string reply = connection.round_trip_line(frame);
    EXPECT_NE(reply.find("\"status\":\"bad_request\""), std::string::npos)
        << frame;
  }
  // The connection — and the daemon — are still fully serviceable.
  const std::string pong = connection.round_trip_line("{\"op\":\"ping\"}");
  EXPECT_NE(pong.find("\"status\":\"ok\""), std::string::npos);
}

TEST(ProtocolFuzz, PipelinedGarbageGetsOneReplyPerLine) {
  RunningServer server;
  client::Connection connection(server.endpoint());
  const std::vector<std::string> frames = {"{broken", "not json", "[]",
                                           "{\"op\":\"ping\",\"id\":\"p\"}"};
  std::string burst;
  for (const std::string& frame : frames) burst += frame + "\n";
  connection.send_all(burst);

  std::size_t bad = 0, ok = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::string reply =
        connection.read_line(std::chrono::milliseconds(60000));
    if (reply.find("\"status\":\"bad_request\"") != std::string::npos) ++bad;
    if (reply.find("\"status\":\"ok\"") != std::string::npos) ++ok;
  }
  EXPECT_EQ(bad, 3u);
  EXPECT_EQ(ok, 1u);
}

TEST(ProtocolFuzz, OversizedFrameIsRefusedWithBadRequestThenDisconnect) {
  serve::ServeOptions options;
  options.max_request_bytes = 1024;
  RunningServer server(options);
  client::Connection connection(server.endpoint());

  // An endless line (no newline) past the bound: one structured refusal,
  // then the server closes the connection.
  connection.send_all(std::string(4096, 'x'));
  const std::string reply =
      connection.read_line(std::chrono::milliseconds(60000));
  EXPECT_NE(reply.find("\"status\":\"bad_request\""), std::string::npos);
  EXPECT_NE(reply.find("max-request-bytes"), std::string::npos);
  EXPECT_THROW((void)connection.read_line(std::chrono::milliseconds(60000)),
               std::runtime_error);

  // The daemon itself shrugged it off: a fresh connection works.
  client::Connection fresh(server.endpoint());
  const std::string pong = fresh.round_trip_line("{\"op\":\"ping\"}");
  EXPECT_NE(pong.find("\"status\":\"ok\""), std::string::npos);
}

TEST(ProtocolFuzz, FrameExactlyAtTheBoundIsServed) {
  serve::ServeOptions options;
  options.max_request_bytes = 256;
  RunningServer server(options);
  client::Connection connection(server.endpoint());

  // Pad a valid ping with ignored fields up to exactly the bound (the
  // newline itself is the frame terminator, not part of the frame).
  std::string frame = "{\"op\":\"ping\",\"id\":\"";
  frame.append(256 - frame.size() - 2, 'p');
  frame += "\"}";
  ASSERT_EQ(frame.size(), 256u);
  const std::string reply = connection.round_trip_line(frame);
  EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos);
}

}  // namespace
}  // namespace netrev::pipeline
