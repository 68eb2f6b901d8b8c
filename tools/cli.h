// The `sketchsample` command-line tool: dataset generation, exact
// aggregates, sketch-over-sample estimation, and sketch file management
// from the shell. The entry point is exposed here (rather than living in
// main.cc) so the test suite can drive every subcommand in-process.
//
// Subcommands:
//   generate  — write a synthetic dataset (one value per line)
//   exact     — exact self-join / join of dataset files
//   estimate  — sketch-over-sample estimate of self-join / join
//   sketch    — build an F-AGMS sketch of a file and serialize it
//   combine   — estimate aggregates from serialized sketch files
//   stats     — per-file planner statistics (count, distinct, F2)
//   topk      — top-k most frequent values via Count-Sketch point queries
//   range     — range-frequency / quantile queries via a dyadic sketch
//   stream    — robust pipeline run: adaptive load shedding, fault
//               injection, checkpoint/resume, honest error bars
//   serve     — long-running HTTP query service over a live shard engine
//               (tools/serve.h; endpoints in docs/SERVICE.md)
//   offline   — the same engine + answer writers without a server;
//               prints the exact JSON the service would return
//
// Run `sketchsample <subcommand> --help` for per-command flags.
#ifndef SKETCHSAMPLE_TOOLS_CLI_H_
#define SKETCHSAMPLE_TOOLS_CLI_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sketchsample {
namespace cli {

/// Reads a dataset file: one non-negative integer value per line; blank
/// lines and lines starting with '#' are skipped. Throws std::runtime_error
/// on unreadable files or malformed lines.
std::vector<uint64_t> ReadValuesFile(const std::string& path);

/// Writes a dataset file in the ReadValuesFile format.
void WriteValuesFile(const std::string& path,
                     const std::vector<uint64_t>& values);

/// Reads / writes raw binary files (serialized sketches).
std::vector<uint8_t> ReadBinaryFile(const std::string& path);
void WriteBinaryFile(const std::string& path,
                     const std::vector<uint8_t>& bytes);

/// Runs the tool; argv[1] selects the subcommand. Returns the process exit
/// code (0 on success). All output goes to stdout, errors to stderr.
int RunCli(int argc, char** argv);

}  // namespace cli
}  // namespace sketchsample

#endif  // SKETCHSAMPLE_TOOLS_CLI_H_
