// Request execution for the serve daemon.
//
// One admitted request = one library call on the exec/ runtime. gen,
// diagnose and experiment go through the command layer the one-shot CLI
// uses (app/commands.hpp): the same flag table, defaults, strict value
// parsing and engine dispatch. That is the serve bit-identity contract — a
// diagnose request returns the same solution sets the CLI prints for the
// same inputs.
//
// Repeat requests on the same inputs hit cache::ArtifactCache: parsed
// .bench netlists (full-scan view included) are cached under kNetlist keyed
// by file CONTENT, parsed test-sets under kGoldenOutputs keyed by netlist
// fingerprint + file content, and generated circuits under kNetlist keyed
// by (profile, scale, seed) — warm requests pay only the solve.
#pragma once

#include <cstddef>
#include <string>

#include "serve/protocol.hpp"
#include "util/timer.hpp"

namespace satdiag::serve {

/// Execute one admitted request and return its complete one-line response
/// frame (no trailing newline). `deadline` is the request's remaining
/// budget — it already covered the admission-queue wait, and execution
/// limits (--limit) are clamped to what is left. `max_threads` is the
/// daemon's --threads: a request asking for more lanes is a bad_request,
/// so one admitted request cannot start more threads than the operator
/// allowed. Never throws: every failure becomes a structured error
/// response.
std::string execute_request(const Request& req, const Deadline& deadline,
                            std::size_t max_threads = 1);

}  // namespace satdiag::serve
