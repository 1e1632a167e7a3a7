// Branch-free, vectorizable inner kernels for the expansion/heuristic hot
// path, behind a runtime CPU dispatch so release binaries stay portable.
//
// The kernels iterate the SoA context arrays (ScheduleView) with no
// early-exit branches: scheduled/unscheduled decisions become masks, max
// reductions scan the whole range. Each has a scalar body and, on x86-64,
// an AVX2 twin compiled with a target attribute and selected once at
// startup via __builtin_cpu_supports — no ISA flags leak into the global
// build, so the binary runs on any x86-64 (and any other arch uses the
// scalar path).
//
// Bit-exactness: the wide variants use only add/max/blend — no FMA, no
// reassociated sums — and max is a selection, so scalar and wide paths
// return identical doubles on identical inputs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace optsched::core::hotpath {

/// max(0, max_i x[i]) over the whole range, no early exit. Precondition:
/// x[i] >= 0 (static levels, start estimates).
double max_reduce(const double* x, std::size_t n);

/// Seed the h_path propagation arrays in one branch-free pass:
///   est[i] = scheduled(i) ? finish[i]   : 0
///   add[i] = scheduled(i) ? 0           : w_scaled[i]
/// so the topological inner loop can read est[p] + add[p] for every parent
/// without testing scheduledness. `proc_of[i] == 0xFFFFFFFF` (kInvalidProc)
/// means unscheduled.
void est_seed(const std::uint32_t* proc_of, const double* finish,
              const double* w_scaled, std::size_t n, double* est,
              double* add);

/// Was a wide (AVX2) implementation selected at startup?
bool wide_available();

/// Pin the dispatch to the scalar bodies (true) or back to the startup
/// choice (false). Bench/test knob for scalar-vs-wide comparisons; not
/// thread-safe against concurrent kernel calls.
void force_scalar(bool scalar_only);

}  // namespace optsched::core::hotpath
