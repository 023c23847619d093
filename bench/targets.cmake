# Bench binaries land directly in ${CMAKE_BINARY_DIR}/bench (and nothing
# else does), so `for b in build/bench/*; do $b; done` runs them all.
function(hsyn_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE hsyn benchmark::benchmark)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

hsyn_bench(bench_library)
hsyn_bench(bench_embedding)
hsyn_bench(bench_moves_ab)
hsyn_bench(bench_table3)
hsyn_bench(bench_table4)
hsyn_bench(bench_ablation)
hsyn_bench(bench_micro)
hsyn_bench(bench_physical)
hsyn_bench(bench_transforms)
hsyn_bench(bench_scaling)
hsyn_bench(bench_runtime)
hsyn_bench(bench_eval)
hsyn_bench(bench_power)
# The compiled-vs-oracle gate uses the reference interpreter that lives
# with the tests (tests/replay_oracle.h).
target_include_directories(bench_power PRIVATE ${CMAKE_SOURCE_DIR}/tests)
hsyn_bench(bench_obs)
hsyn_bench(bench_serve)
hsyn_bench(bench_portfolio)
hsyn_bench(bench_dataflow)
hsyn_bench(bench_telemetry)
