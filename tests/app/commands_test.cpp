// The command layer's option checks, seen from both front ends: every
// invalid option in the table must give the same message through the
// one-shot CLI (stderr, exit 2) and through serve::execute_request
// (a "bad_request" reply).
#include "app/commands.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace satdiag {
namespace {

struct InvalidOption {
  std::string command;
  std::vector<std::pair<std::string, std::string>> args;
  std::string message;
};

const std::string kBench = SATDIAG_GOLDEN_DIR "/faulty.bench";
const std::string kTests = SATDIAG_GOLDEN_DIR "/tests.txt";

std::vector<InvalidOption> invalid_options() {
  const std::string k_range = "--k must be in [1, 2147483647] (got ";
  return {
      {"diagnose", {{"k", "0"}}, k_range + "0)"},
      {"diagnose", {{"k", "-1"}}, k_range + "-1)"},
      {"diagnose", {{"k", "4294967296"}}, k_range + "4294967296)"},
      {"diagnose", {{"threads", "0"}}, "--threads must be >= 1 (got 0)"},
      {"diagnose",
       {{"approach", "cov"}, {"threads", "2"}},
       "--threads requires a SAT-backed approach (bsat or hybrid)"},
      {"diagnose",
       {{"approach", "exhaustive"}},
       "unknown approach 'exhaustive'"},
      {"experiment",
       {{"tests", "8abc"}},
       "--tests entries must be positive integers (got '8abc')"},
      {"experiment",
       {{"circuits", ""}},
       "--circuits requires at least one name"},
  };
}

/// Valid inputs around the one invalid option, so only that option is wrong.
serve::Request make_request(const InvalidOption& option) {
  serve::Request req{.id = "t", .command = option.command, .args = {},
                     .positional = {}};
  if (option.command == "diagnose") {
    req.positional = {kBench};
    req.args["tests"] = kTests;
  }
  for (const auto& [name, value] : option.args) req.args[name] = value;
  return req;
}

/// The served reply's error message; fails the test unless it is a
/// bad_request.
std::string served_error(const std::string& response) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(json_parse(response, v, error)) << response;
  const JsonValue* status = v.find("status");
  const JsonValue* body = v.find("error");
  EXPECT_TRUE(status != nullptr && status->string == "error") << response;
  if (body == nullptr) return "<no error>";
  const JsonValue* code = body->find("code");
  EXPECT_TRUE(code != nullptr && code->string == serve::kErrBadRequest)
      << response;
  const JsonValue* message = body->find("message");
  return message != nullptr ? message->string : "<no message>";
}

/// Runs the CLI on `req` spelled as flags; returns its exit code and
/// combined output.
std::pair<int, std::string> run_cli(const serve::Request& req) {
  // Built by appending: GCC 12 reports a false -Wrestrict on
  // "literal" + std::string at -O2 (GCC bug 105329).
  std::string command = SATDIAG_CLI_PATH " ";
  command += req.command;
  for (const std::string& operand : req.positional) {
    command += ' ';
    command += operand;
  }
  for (const auto& [name, value] : req.args) {
    command += " '--";
    command += name;
    command += '=';
    command += value;
    command += '\'';
  }
  command += " 2>&1";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return {-1, "popen failed"};
  std::string output;
  char chunk[256];
  while (std::fgets(chunk, sizeof chunk, pipe) != nullptr) output += chunk;
  const int status = ::pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

TEST(CommandLayerTest, InvalidOptionsFailAlikeOnCliAndServe) {
  for (const InvalidOption& option : invalid_options()) {
    const serve::Request req = make_request(option);
    SCOPED_TRACE(option.command + " " + option.args.front().first + "=" +
                 option.args.front().second);
    EXPECT_EQ(served_error(serve::execute_request(
                  req, Deadline::after_seconds(30.0))),
              option.message);
    const auto [exit_code, output] = run_cli(req);
    EXPECT_EQ(exit_code, 2);
    std::string expected = "satdiag: ";
    expected += option.message;
    expected += '\n';
    EXPECT_EQ(output, expected);
  }
}

TEST(CommandLayerTest, ServedThreadsAreBoundedByTheDaemon) {
  // Rejected before any engine runs, so no extra thread is started.
  serve::Request req = make_request({"diagnose", {{"threads", "2"}}, ""});
  EXPECT_EQ(served_error(serve::execute_request(
                req, Deadline::after_seconds(30.0), /*max_threads=*/1)),
            "--threads 2 exceeds the server's --threads 1");
}

TEST(CommandLayerTest, FlagTablesDifferOnlyInTextOutput) {
  CliArgs args;
  std::string error;
  const char* argv[] = {"satdiag", "diagnose", "--stats=true"};
  ASSERT_TRUE(args.parse(3, argv, error)) << error;
  EXPECT_NO_THROW(app::check_flags(app::Surface::kCli, "diagnose", args));
  EXPECT_THROW(app::check_flags(app::Surface::kServe, "diagnose", args),
               CliUsageError);
  EXPECT_TRUE(app::has_command(app::Surface::kCli, "repair"));
  EXPECT_FALSE(app::has_command(app::Surface::kServe, "repair"));
  EXPECT_TRUE(app::has_command(app::Surface::kServe, "ping"));
  EXPECT_FALSE(app::has_command(app::Surface::kCli, "ping"));
}

}  // namespace
}  // namespace satdiag
