// co_fuzz — deterministic simulation fuzzer for the CO protocol.
//
//   co_fuzz --seeds N [--start S] [--mutation M] [--out FILE] [--no-shrink]
//       Sweep N consecutive scenario seeds; on the first failure, shrink it
//       and write a replayable counterexample artifact. Exit 1 on failure.
//
//   co_fuzz --replay FILE
//       Load an artifact, re-run its scenario, and verify the violation
//       reproduces with the identical record and effect digests (a v1
//       artifact's text-era record digest is skipped). Exit 0 only on an
//       exact byte-for-byte reproduction.
//
//   co_fuzz --shrink SEED [--mutation M] [--out FILE]
//       Re-derive the scenario for SEED (which must fail) and minimize it.
//
// Mutations (--mutation): none | no_causal_gate | deliver_on_accept |
// ignore_pack_condition | ignore_ack_condition. A mutation deliberately
// breaks one protocol rule so the fuzzer can prove its own oracle catches
// real defects (see tests/fuzz_test.cpp).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>

#include "src/fuzz/fuzzer.h"
#include "src/obs/trace/file.h"

namespace {

using namespace co::fuzz;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --seeds N [--start S] [--mutation M] [--out FILE] "
               "[--no-shrink] [--quiet]\n"
               "       %s --replay FILE\n"
               "       %s --shrink SEED [--mutation M] [--out FILE]\n",
               argv0, argv0, argv0);
  std::exit(2);
}

struct Args {
  std::optional<std::uint64_t> seeds;
  std::uint64_t start = 1;
  std::optional<std::string> replay_path;
  std::optional<std::uint64_t> shrink_seed;
  std::string mutation = "none";
  std::string out = "co_fuzz_counterexample.json";
  bool shrink = true;
  bool quiet = false;
};

std::uint64_t parse_u64(const char* s, const char* argv0) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage(argv0);
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--seeds") a.seeds = parse_u64(next(), argv[0]);
    else if (arg == "--start") a.start = parse_u64(next(), argv[0]);
    else if (arg == "--replay") a.replay_path = next();
    else if (arg == "--shrink") a.shrink_seed = parse_u64(next(), argv[0]);
    else if (arg == "--mutation") a.mutation = next();
    else if (arg == "--out") a.out = next();
    else if (arg == "--no-shrink") a.shrink = false;
    else if (arg == "--quiet") a.quiet = true;
    else usage(argv[0]);
  }
  const int modes = (a.seeds.has_value() ? 1 : 0) +
                    (a.replay_path.has_value() ? 1 : 0) +
                    (a.shrink_seed.has_value() ? 1 : 0);
  if (modes != 1) usage(argv[0]);
  return a;
}

/// Drop the failing run's flight-recorder tail next to the JSON artifact
/// (`<out>.cotrace`). Runs are deterministic, so re-running the (shrunk)
/// scenario here re-derives exactly the tail the failure produced.
void write_flight_sidecar(const std::string& json_path,
                          const Counterexample& ce) {
  RunOptions run;
  run.mutation = mutation_from_name(ce.mutation);
  const RunReport r = run_scenario(ce.scenario, run);
  if (!r.failed || r.flight_tail.empty()) return;
  const std::string path = json_path + ".cotrace";
  if (co::obs::trace::write_records_file(path, r.flight_tail,
                                         r.flight_dropped))
    std::printf("co_fuzz: flight recorder dump: %s (%zu records, %llu "
                "overwritten)\n",
                path.c_str(), r.flight_tail.size(),
                static_cast<unsigned long long>(r.flight_dropped));
  else
    std::fprintf(stderr, "co_fuzz: cannot write flight dump %s\n",
                 path.c_str());
}

/// Replay-side flight check: when `<artifact>.cotrace` exists, the freshly
/// replayed tail must match it record-for-record. Returns 0 on match or
/// missing sidecar, 1 on any mismatch.
int check_flight_sidecar(const std::string& path, const RunReport& fresh) {
  if (!std::ifstream(path, std::ios::binary)) return 0;  // no sidecar
  co::obs::trace::ParsedTrace dump;
  if (const auto err = co::obs::trace::read_trace_file(path, dump)) {
    std::printf("co_fuzz: flight dump %s INVALID: %s\n", path.c_str(),
                err->c_str());
    return 1;
  }
  const auto& tail = fresh.flight_tail;
  const bool same =
      dump.records.size() == tail.size() &&
      (tail.empty() ||
       std::memcmp(dump.records.data(), tail.data(),
                   tail.size() * sizeof(co::obs::trace::Record)) == 0);
  if (!same) {
    std::printf("co_fuzz: flight dump %s does NOT match the replayed tail "
                "(%zu vs %zu records) — nondeterminism bug\n",
                path.c_str(), dump.records.size(), tail.size());
    return 1;
  }
  std::printf("co_fuzz: flight dump matches the replayed event tail "
              "(%zu records)\n",
              tail.size());
  return 0;
}

int cmd_sweep(const Args& a) {
  FuzzOptions o;
  o.start_seed = a.start;
  o.seeds = *a.seeds;
  o.run.mutation = mutation_from_name(a.mutation);
  o.shrink_failures = a.shrink;
  std::uint64_t done = 0;
  o.on_seed = [&](std::uint64_t seed, const RunReport& r) {
    ++done;
    if (!a.quiet && (done % 50 == 0 || r.failed))
      std::fprintf(stderr, "[co_fuzz] seed %llu: %s (%llu/%llu)\n",
                   static_cast<unsigned long long>(seed),
                   r.failed ? r.violation_kind.c_str() : "ok",
                   static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(*a.seeds));
  };

  const FuzzOutcome outcome = fuzz(o);
  if (!outcome.failing_seed) {
    std::printf("co_fuzz: %llu seeds clean (start=%llu, mutation=%s)\n",
                static_cast<unsigned long long>(outcome.executed),
                static_cast<unsigned long long>(a.start), a.mutation.c_str());
    return 0;
  }

  const Counterexample& ce = *outcome.counterexample;
  std::printf("co_fuzz: seed %llu FAILED: %s\n",
              static_cast<unsigned long long>(*outcome.failing_seed),
              ce.violation_detail.c_str());
  if (outcome.shrink) {
    std::printf("co_fuzz: shrunk to [%s] in %zu runs\n",
                ce.scenario.summary().c_str(), outcome.shrink->runs);
  }
  ce.save(a.out);
  std::printf("co_fuzz: counterexample written to %s (replay with "
              "--replay %s)\n",
              a.out.c_str(), a.out.c_str());
  write_flight_sidecar(a.out, ce);
  return 1;
}

int cmd_replay(const Args& a) {
  const Counterexample ce = Counterexample::load(*a.replay_path);
  std::printf("co_fuzz: replaying [%s] mutation=%s expecting %s\n",
              ce.scenario.summary().c_str(), ce.mutation.c_str(),
              ce.violation_kind.c_str());
  const ReplayVerdict v = replay(ce);
  if (ce.trace_events == 0)
    std::printf("co_fuzz: v1 artifact: text-era trace digest not compared; "
                "checking the verdict and effect digest\n");
  if (v.exact) {
    std::printf("co_fuzz: reproduced byte-for-byte (digest %016llx, "
                "%llu events, effects %016llx/%llu): %s\n",
                static_cast<unsigned long long>(v.report.digest),
                static_cast<unsigned long long>(v.report.trace_events),
                static_cast<unsigned long long>(v.report.effect_digest),
                static_cast<unsigned long long>(v.report.effects_emitted),
                v.report.violation_detail.c_str());
    return check_flight_sidecar(*a.replay_path + ".cotrace", v.report);
  }
  if (v.reproduced) {
    std::printf("co_fuzz: violation reproduced but digest differs "
                "(trace %016llx vs artifact %016llx, effects %016llx vs "
                "%016llx) — nondeterminism bug\n",
                static_cast<unsigned long long>(v.report.digest),
                static_cast<unsigned long long>(ce.digest),
                static_cast<unsigned long long>(v.report.effect_digest),
                static_cast<unsigned long long>(ce.effect_digest));
    return 1;
  }
  std::printf("co_fuzz: did NOT reproduce (run %s: %s)\n",
              v.report.failed ? "failed differently" : "passed",
              v.report.failed ? v.report.violation_detail.c_str() : "-");
  return 1;
}

int cmd_shrink(const Args& a) {
  RunOptions run;
  run.mutation = mutation_from_name(a.mutation);
  const Scenario scenario = Scenario::generate(*a.shrink_seed);
  const RunReport report = run_scenario(scenario, run);
  if (!report.failed) {
    std::printf("co_fuzz: seed %llu does not fail (mutation=%s); "
                "nothing to shrink\n",
                static_cast<unsigned long long>(*a.shrink_seed),
                a.mutation.c_str());
    return 2;
  }
  const ShrinkResult sr = shrink(scenario, run);
  Counterexample ce = Counterexample::make(sr.scenario, sr.report, run);
  ce.original_seed = *a.shrink_seed;
  ce.shrink_runs = sr.runs;
  ce.save(a.out);
  write_flight_sidecar(a.out, ce);
  std::printf("co_fuzz: shrunk seed %llu from %zu submits/%zu faults to "
              "%zu/%zu (n=%zu) in %zu runs; artifact: %s\n",
              static_cast<unsigned long long>(*a.shrink_seed),
              scenario.submits.size(), scenario.faults.size(),
              sr.scenario.submits.size(), sr.scenario.faults.size(),
              sr.scenario.n, sr.runs, a.out.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.seeds) return cmd_sweep(a);
    if (a.replay_path) return cmd_replay(a);
    return cmd_shrink(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "co_fuzz: error: %s\n", e.what());
    return 2;
  }
}
