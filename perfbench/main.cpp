//===- main.cpp - the repository benchmark's command line -------------------===//
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE]
//
// Workloads: batch_large and serve_small (see README.md). With
// --trace 0 the run reports the end-to-end metrics; with --trace 1 a
// traced run reports the per-layer metrics. Human-readable lines start
// with '#'; the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. Exit code 0 means every
// output check passed; 1 means some did not; 2 means bad usage.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace pb;

namespace {

bool parseArgs(int argc, char **argv, RunOptions &O) {
  if (argc % 2 == 0)
    return false;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string K = argv[I], V = argv[I + 1];
    char *End = nullptr;
    if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      O.Seconds = strtod(V.c_str(), &End);
    else if (K == "--trace")
      O.Trace = V == "1";
    else if (K == "--spans-out")
      O.SpansOut = V;
    else
      return false;
    if (End && *End)
      return false;
  }
  return O.Seconds > 0 &&
         (O.Workload == "batch_large" || O.Workload == "serve_small");
}

void printResult(Result &R) {
  for (Result::Metric &M : R.Metrics)
    if (!std::isfinite(M.Value)) {
      R.broken(M.Name + " is not a finite number");
      M.Value = 0;
    }
  for (const std::string &P : R.Problems)
    printf("# FAILED: %s\n", P.c_str());
  for (const Result::Metric &M : R.Metrics)
    printf("# %-26s %18.6f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  bool Correct = R.Problems.empty() && R.Failed == 0;
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {",
         Correct ? "true" : "false",
         static_cast<unsigned long long>(R.Attempted),
         static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < R.Metrics.size(); ++I)
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", I ? ", " : "",
           R.Metrics[I].Name.c_str(), R.Metrics[I].Value,
           R.Metrics[I].Unit.c_str());
  printf("}}\n");
}

} // namespace

int main(int argc, char **argv) {
  RunOptions O;
  if (!parseArgs(argc, argv, O)) {
    fprintf(stderr,
            "usage: perfbench --workload batch_large|serve_small "
            "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n");
    return 2;
  }
  setvbuf(stdout, nullptr, _IOLBF, 0);

  Setup S;
  std::string Err;
  if (!runSetup(S, Err)) {
    fprintf(stderr, "perfbench: set-up failed: %s\n", Err.c_str());
    return 1;
  }

  Result R;
  if (!O.Trace) {
    printf("# raw setup_s %.6f s over %d builds\n", S.RawSetupSeconds,
           SetupReps);
    R.add("setup_s", S.SetupSeconds, "s");
  }
  if (O.Workload == "batch_large")
    runBatch(O, S, R);
  else
    runServe(O, S, R);

  if (O.Trace) {
    R.add("tablegen.build_s", S.BuildSeconds, "s");
    R.add("tablegen.verify_s", S.VerifySeconds, "s");
    R.add("tablegen.allocs", static_cast<double>(S.Allocs), "count");
  } else {
    R.add("peak_rss_mb", R.PeakRssMb, "MB");
  }
  printResult(R);
  return R.Problems.empty() && R.Failed == 0 ? 0 : 1;
}
