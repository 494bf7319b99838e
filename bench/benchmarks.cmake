# Benchmark binaries land in build/bench/ with nothing else, so
# `for b in build/bench/*; do $b; done` runs exactly the benches.

function(sensorcer_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE sensorcer_core benchmark::benchmark)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

sensorcer_add_bench(bench_fig2_services)
sensorcer_add_bench(bench_fig3_experiment)
sensorcer_add_bench(bench_header_overhead)
sensorcer_add_bench(bench_discovery)
sensorcer_add_bench(bench_lease_churn)
sensorcer_add_bench(bench_failover)
sensorcer_add_bench(bench_provisioning)
sensorcer_add_bench(bench_exertion)
sensorcer_add_bench(bench_composite_tree)
sensorcer_add_bench(bench_expression)
sensorcer_add_bench(bench_data_flow)
sensorcer_add_bench(bench_plug_and_play)
sensorcer_add_bench(bench_ablation)
sensorcer_add_bench(bench_observability)
sensorcer_add_bench(bench_historian)
sensorcer_add_bench(bench_flow)
sensorcer_add_bench(bench_chaos)
target_link_libraries(bench_chaos PRIVATE sensorcer_chaos)
