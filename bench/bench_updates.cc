// Update-script subsystem benchmark: compiling an `xmlup apply` script
// (comments, `let` bindings, move and rename actions) into the
// UpdateRequest IR. Acked update throughput through the write pipeline is
// measured end to end by e2ebench and, per layer, by bench_concurrency.

#include <benchmark/benchmark.h>

#include <string>

#include "updates/script.h"

namespace {

using namespace xmlup;

void BM_ParseUpdateScript(benchmark::State& state) {
  const std::string script =
      "# seed a section\n"
      "let SECTION = /s3\n"
      "let VALUE = \"hello world\"\n"
      "-u ${SECTION}/item/v/text() -v ${VALUE}\n"
      "-s ${SECTION}/item -t elem -n x -v ${VALUE}\n"
      "-m ${SECTION}/item/x /s4/item\n"
      "-r /s4/item/x -v renamed\n";
  for (auto _ : state) {
    auto compiled = updates::ParseUpdateScript(script, "bench");
    if (!compiled.ok()) {
      state.SkipWithError("parse failed");
      return;
    }
    benchmark::DoNotOptimize(compiled->requests.size());
  }
}
BENCHMARK(BM_ParseUpdateScript)->MinTime(0.1);

}  // namespace

BENCHMARK_MAIN();
