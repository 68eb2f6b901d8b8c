// The `serve` and `offline` subcommands of the sketchsample CLI.
//
//   serve   — long-running query service: HTTP endpoints over a live shard
//             engine (src/service/service.h). Prints "listening on
//             HOST:PORT" once ready; runs until SIGINT/SIGTERM or
//             --run-seconds.
//   offline — runs the *same* engine + answer writers over the same
//             stream without a server and prints each endpoint's exact
//             JSON body, one per line. The service-smoke CI job diffs
//             these against live HTTP responses byte for byte.
#ifndef SKETCHSAMPLE_TOOLS_SERVE_H_
#define SKETCHSAMPLE_TOOLS_SERVE_H_

namespace sketchsample {
namespace cli {

int CmdServe(int argc, char** argv);
int CmdOffline(int argc, char** argv);

}  // namespace cli
}  // namespace sketchsample

#endif  // SKETCHSAMPLE_TOOLS_SERVE_H_
