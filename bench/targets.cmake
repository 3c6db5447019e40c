# Benchmark drivers: one executable per paper table/figure, plus ablations
# and google-benchmark microbenchmarks. Included from the top-level
# CMakeLists (not via add_subdirectory) so that build/bench/ contains only
# the executables and `for b in build/bench/*; do $b; done` runs cleanly.

function(fv_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE fv_core fv_baseline fv_benchlib ${ARGN})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

fv_add_bench(table1_resources)
fv_add_bench(fig6_rdma)
fv_add_bench(fig7_projection)
fv_add_bench(fig8_selection)
fv_add_bench(fig9_grouping)
fv_add_bench(fig10_regex)
fv_add_bench(fig11_encryption)
fv_add_bench(fig12_multiclient)
fv_add_bench(ablate_cuckoo)
fv_add_bench(ablate_packet_size)
fv_add_bench(ablate_striping)
fv_add_bench(ablate_vector)
fv_add_bench(micro_primitives benchmark::benchmark)
fv_add_bench(ext_join)
fv_add_bench(ext_buffer_pool fv_storage fv_sql)
fv_add_bench(ext_elasticity)
fv_add_bench(ext_optimizer fv_optimizer)
fv_add_bench(ext_compression fv_compress)
fv_add_bench(ext_faults)
fv_add_bench(ext_failover)
fv_add_bench(ext_shardout)
# Partitioned-core tenant sweep (DESIGN.md §14): stdout is deterministic and
# golden-checked at any FV_SIM_THREADS; its wall-clock speedup section goes
# to stderr only.
fv_add_bench(ext_megaclient)
# Overload protection (DESIGN.md §15): hot-tenant storm through the
# RegionScheduler plus a megaclient storm with admission shaping; stdout is
# deterministic at any FV_SIM_THREADS and golden-checked.
fv_add_bench(ext_overload)
