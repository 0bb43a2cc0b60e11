#include "cli/options.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace netrev::cli {
namespace {

const CommandSpec& cmd(const char* name) {
  const CommandSpec* command = find_command(name);
  EXPECT_NE(command, nullptr) << name;
  return *command;
}

TEST(CliOptions, CommandTableKnowsEveryCommand) {
  for (const char* name : {"stats", "reference", "identify", "reduce",
                           "evaluate", "lint", "propagate", "batch",
                           "generate", "scan", "dot", "table"})
    EXPECT_NE(find_command(name), nullptr) << name;
  EXPECT_EQ(find_command("frobnicate"), nullptr);
}

TEST(CliOptions, EveryDeclaredFlagExistsInTheFlagTable) {
  for (const CommandSpec& command : command_table())
    for (FlagId id : command.flags) {
      bool found = false;
      for (const FlagSpec& flag : flag_table())
        if (flag.id == id) found = true;
      EXPECT_TRUE(found) << "command " << command.name
                         << " references an undeclared flag";
    }
}

TEST(CliOptions, ParsesBoolInlineAliasAndPositionalForms) {
  const ParsedFlags flags = parse_flags(
      cmd("identify"), {"identify", "b03s", "--json", "--depth=3", "-j", "2"},
      1);
  EXPECT_TRUE(flags.json);
  ASSERT_TRUE(flags.options.depth.has_value());
  EXPECT_EQ(*flags.options.depth, 3u);
  ASSERT_TRUE(flags.jobs.has_value());
  EXPECT_EQ(*flags.jobs, 2u);
  ASSERT_EQ(flags.positional.size(), 1u);
  EXPECT_EQ(flags.positional[0], "b03s");
}

TEST(CliOptions, RejectsMalformedFlagUses) {
  EXPECT_THROW((void)parse_flags(cmd("identify"), {"identify", "--bogus"}, 1),
               std::invalid_argument);
  EXPECT_THROW((void)parse_flags(cmd("identify"), {"identify", "--depth"}, 1),
               std::invalid_argument);  // needs a value
  EXPECT_THROW((void)parse_flags(cmd("identify"), {"identify", "--json=1"}, 1),
               std::invalid_argument);  // does not take a value
  EXPECT_THROW((void)parse_flags(cmd("identify"), {"identify", "--jobs", "0"},
                                 1),
               std::invalid_argument);  // positive thread count required
}

TEST(CliOptions, NonGlobalFlagsAreRejectedPerCommand) {
  try {
    (void)parse_flags(cmd("stats"), {"stats", "b03s", "--depth", "3"}, 1);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("not valid for 'stats'"),
              std::string::npos)
        << error.what();
  }
}

TEST(CliOptions, GlobalFlagsApplyToEveryCommand) {
  for (const CommandSpec& command : command_table()) {
    const ParsedFlags flags =
        parse_flags(command, {command.name, "--permissive"}, 1);
    EXPECT_EQ(flags.options.permissive, true) << command.name;
  }
}

TEST(CliOptions, ProfileFormsParse) {
  const ParsedFlags text =
      parse_flags(cmd("identify"), {"identify", "x", "--profile"}, 1);
  EXPECT_TRUE(text.profile);
  EXPECT_FALSE(text.profile_json);
  const ParsedFlags json =
      parse_flags(cmd("identify"), {"identify", "x", "--profile=json"}, 1);
  EXPECT_TRUE(json.profile_json);
}

TEST(CliOptions, FailOnParsesSeverityNames) {
  const ParsedFlags flags =
      parse_flags(cmd("lint"), {"lint", "x", "--fail-on", "warning"}, 1);
  ASSERT_TRUE(flags.fail_on.has_value());
  EXPECT_EQ(*flags.fail_on, diag::Severity::kWarning);
  EXPECT_THROW(
      (void)parse_flags(cmd("lint"), {"lint", "x", "--fail-on", "fatal"}, 1),
      std::invalid_argument);
}

TEST(CliOptions, AssignAndRulesAccumulate) {
  const ParsedFlags reduce = parse_flags(
      cmd("reduce"), {"reduce", "x", "--assign", "A=0", "--assign", "B=1"}, 1);
  ASSERT_EQ(reduce.assignments.size(), 2u);
  EXPECT_EQ(reduce.assignments[0].first, "A");
  EXPECT_FALSE(reduce.assignments[0].second);
  EXPECT_EQ(reduce.assignments[1].first, "B");
  EXPECT_TRUE(reduce.assignments[1].second);
  EXPECT_THROW(
      (void)parse_flags(cmd("reduce"), {"reduce", "x", "--assign", "A=2"}, 1),
      std::invalid_argument);

  const ParsedFlags lint =
      parse_flags(cmd("lint"), {"lint", "x", "--rules", "a,b"}, 1);
  EXPECT_EQ(lint.rules, (std::vector<std::string>{"a", "b"}));
}

TEST(CliOptions, BatchFlagsParse) {
  const ParsedFlags flags = parse_flags(
      cmd("batch"), {"batch", "b03s", "b04s", "--keep-going", "--json"}, 1);
  EXPECT_TRUE(flags.keep_going);
  EXPECT_TRUE(flags.json);
  EXPECT_EQ(flags.positional,
            (std::vector<std::string>{"b03s", "b04s"}));
}

TEST(CliOptions, NumericFlagsRejectNegativeValues) {
  // std::stoul would wrap "-5" into a huge count; the central validator
  // rejects it with a diagnostic naming the flag.
  try {
    (void)parse_flags(cmd("identify"),
                      {"identify", "b03s", "--timeout", "-5"}, 1);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--timeout"), std::string::npos) << what;
    EXPECT_NE(what.find("negative values are not allowed"), std::string::npos)
        << what;
  }
  EXPECT_THROW((void)parse_flags(cmd("batch"),
                                 {"batch", "b03s", "--retries", "-1"}, 1),
               std::invalid_argument);
  EXPECT_THROW((void)parse_flags(cmd("identify"),
                                 {"identify", "b03s", "--cache-entries=-2"},
                                 1),
               std::invalid_argument);
  EXPECT_THROW((void)parse_flags(cmd("identify"),
                                 {"identify", "b03s", "--depth", "-3"}, 1),
               std::invalid_argument);
}

TEST(CliOptions, NumericFlagsRejectTrailingJunkEmptyAndOverflow) {
  try {
    (void)parse_flags(cmd("identify"),
                      {"identify", "b03s", "--depth", "3abc"}, 1);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("not a decimal digit"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW((void)parse_flags(cmd("identify"),
                                 {"identify", "b03s", "--timeout="}, 1),
               std::invalid_argument);  // empty value
  try {
    (void)parse_flags(
        cmd("identify"),
        {"identify", "b03s", "--timeout", "99999999999999999999999999"}, 1);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("value out of range"),
              std::string::npos)
        << error.what();
  }
}

TEST(CliOptions, ServeAndClientCommandsParse) {
  const ParsedFlags serve = parse_flags(
      cmd("serve"), {"serve", "--listen", "127.0.0.1:0", "--max-queue", "8",
                     "--max-inflight", "2", "--idle-timeout", "1000",
                     "--drain-timeout", "2000"},
      1);
  EXPECT_EQ(serve.listen, "127.0.0.1:0");
  EXPECT_EQ(serve.max_queue, 8u);
  EXPECT_EQ(serve.max_inflight, 2u);
  EXPECT_EQ(serve.idle_timeout_ms, 1000u);
  EXPECT_EQ(serve.drain_timeout_ms, 2000u);

  const ParsedFlags client = parse_flags(
      cmd("client"), {"client", "identify", "b03s", "--connect",
                      "127.0.0.1:4821", "--id", "r1"},
      1);
  EXPECT_EQ(client.connect, "127.0.0.1:4821");
  EXPECT_EQ(client.request_id, "r1");
  EXPECT_EQ(client.positional,
            (std::vector<std::string>{"identify", "b03s"}));

  // Queue bound 0 is legal (shed everything); zero workers is not.
  EXPECT_EQ(*parse_flags(cmd("serve"), {"serve", "--max-queue", "0"}, 1)
                 .max_queue,
            0u);
  EXPECT_THROW(
      (void)parse_flags(cmd("serve"), {"serve", "--max-inflight", "0"}, 1),
      std::invalid_argument);
}

TEST(CliOptions, BatchCompactJournalFlagParses) {
  const ParsedFlags flags = parse_flags(
      cmd("batch"),
      {"batch", "b03s", "--resume", "j.jsonl", "--compact-journal"}, 1);
  EXPECT_TRUE(flags.compact_journal);
  EXPECT_EQ(flags.resume, "j.jsonl");
}

TEST(CliOptions, IsolationFlagsParse) {
  const ParsedFlags batch = parse_flags(
      cmd("batch"),
      {"batch", "b03s", "--isolate=4", "--worker-mem", "512", "--worker-cpu",
       "10", "--worker-wall", "500", "--crash-retries", "3"},
      1);
  EXPECT_TRUE(batch.isolate);
  EXPECT_EQ(batch.isolate_workers, 4u);
  EXPECT_EQ(batch.worker_mem_mb, 512u);
  EXPECT_EQ(batch.worker_cpu_s, 10u);
  EXPECT_EQ(batch.worker_wall_ms, 500u);
  EXPECT_EQ(batch.crash_retries, 3u);

  // Bare --isolate: pool with the default worker count.
  const ParsedFlags bare = parse_flags(cmd("batch"), {"batch", "b03s",
                                                      "--isolate"}, 1);
  EXPECT_TRUE(bare.isolate);
  EXPECT_FALSE(bare.isolate_workers.has_value());

  const ParsedFlags serve = parse_flags(
      cmd("serve"), {"serve", "--isolate", "--max-request-bytes", "1024"}, 1);
  EXPECT_TRUE(serve.isolate);
  EXPECT_EQ(serve.max_request_bytes, 1024u);
}

TEST(CliOptions, IsolationFlagsRejectUselessValues) {
  EXPECT_THROW(
      (void)parse_flags(cmd("batch"), {"batch", "b03s", "--isolate=0"}, 1),
      std::invalid_argument);
  EXPECT_THROW(
      (void)parse_flags(cmd("batch"), {"batch", "b03s", "--isolate=two"}, 1),
      std::invalid_argument);
  EXPECT_THROW((void)parse_flags(
                   cmd("batch"), {"batch", "b03s", "--crash-retries", "0"}, 1),
               std::invalid_argument);
  EXPECT_THROW(
      (void)parse_flags(cmd("serve"), {"serve", "--max-request-bytes", "0"},
                        1),
      std::invalid_argument);
  // --crash-retries is batch-only (serve quarantines per request, there is
  // no retry loop to configure).
  EXPECT_THROW(
      (void)parse_flags(cmd("serve"), {"serve", "--crash-retries", "2"}, 1),
      std::invalid_argument);
}

TEST(CliOptions, WorkerCommandParsesButIsHiddenFromUsage) {
  const CommandSpec* worker = find_command("worker");
  ASSERT_NE(worker, nullptr);
  EXPECT_TRUE(worker->hidden);
  const ParsedFlags flags =
      parse_flags(*worker, {"worker", "--retries", "2"}, 1);
  EXPECT_EQ(flags.retries, 2u);
  // Run settings come with each request, never on the worker's argv.
  EXPECT_THROW((void)parse_flags(*worker, {"worker", "--depth", "4"}, 1),
               std::invalid_argument);
  // The usage text never advertises the internal mode.
  EXPECT_EQ(usage().find("(internal)"), std::string::npos);
}

TEST(CliOptions, UsageListsEveryExitCode) {
  const std::string text = usage();
  // The exit-code lines are generated from the ExitCode enum, so each code's
  // name and value must appear.
  for (const char* needle :
       {"0 ok", "2 usage", "5 deadline", "6 drained", "7 drain-timeout",
        "8 overloaded", "9 worker-crashed", "130 interrupted"})
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

TEST(CliOptions, UsageIsGeneratedFromTheTables) {
  const std::string text = usage();
  for (const CommandSpec& command : command_table())
    EXPECT_NE(text.find(command.name), std::string::npos) << command.name;
  for (const FlagSpec& flag : flag_table())
    EXPECT_NE(text.find(flag.name), std::string::npos) << flag.name;
  EXPECT_NE(text.find("exit codes"), std::string::npos);
  EXPECT_NE(text.find("--version"), std::string::npos);
  EXPECT_NE(text.find("--keep-going"), std::string::npos);
}

}  // namespace
}  // namespace netrev::cli
