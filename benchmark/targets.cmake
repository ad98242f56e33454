# Adds the benchmark driver to the repository's own build. run.py
# configures the repository root into benchmark/build with
# -DCMAKE_PROJECT_INCLUDE=<this file>, so the libraries are compiled
# exactly as the tier-1 build compiles them (same build type, flags
# and AVX2 probe) and no CMakeLists.txt outside benchmark/ changes.
#
# CMake runs this file right after the top-level project() call: the
# top level has not yet set the language standard or the warning flags,
# so the driver target sets them itself. Library targets are resolved
# at generate time, after the whole tree has been read.
add_executable(psca_benchmark ${CMAKE_CURRENT_LIST_DIR}/psca_benchmark.cc)
set_target_properties(psca_benchmark PROPERTIES
    CXX_STANDARD 20
    CXX_STANDARD_REQUIRED ON
    CXX_EXTENSIONS OFF)
target_compile_options(psca_benchmark PRIVATE -Wall -Wextra)
target_include_directories(psca_benchmark PRIVATE ${CMAKE_SOURCE_DIR}/src)
target_link_libraries(psca_benchmark PRIVATE psca_serve psca_core psca_uc
    psca_ml psca_dist psca_obs psca_power psca_sim psca_telemetry
    psca_trace psca_math psca_common)
